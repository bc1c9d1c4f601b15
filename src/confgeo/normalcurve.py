"""Frenet decomposition of position vectors, curve classification, and the
normal/tangential deviation residuals over conformal pairs.

Synthetic positions: the image position beta~ on the target of a pair is
always rebuilt from the same nu, eta profiles and the source curvature
(the nu~/kappa~ = nu/kappa standing assumption treated as a definition),
which is what makes the deviation residuals well-posed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import (
    ConformalPair,
    EmbeddingRequiredError,
    dilation_jet,
    g_functions,
    h_function,
    theta_terms,
)
from .exprkit import Expr, evaluate
from .geometry import (
    CURVATURE_FLOOR,
    CurveJets,
    PatchJets,
    SurfacePatch,
    VanishingCurvatureError,
    beltrami_bracket,
    beta_jets,
    christoffel,
    cross,
    dot,
    first_fundamental,
    frenet,
    norm,
    normal_curvature_form,
    require_unit_speed,
    second_fundamental,
    violation,
)

CLASSIFY_TOL = 1e-8

CLASS_COMPONENT = {"normal": "c_t", "osculating": "c_b", "rectifying": "c_n"}


@dataclass(frozen=True)
class FrameDecomposition:
    """Components of the position vector in the Frenet frame;
    nu = beta.n and eta = beta.b are the normal-curve coefficients."""

    c_t: float
    c_n: float
    c_b: float
    nu: float
    eta: float


@dataclass(frozen=True)
class CurveClass:
    """Classification verdict over an s-grid.

    ``satisfied`` lists every class whose defining component stays below
    tolerance (a planar origin-centered circle satisfies two);  ``verdict``
    applies the priority normal > osculating > rectifying.  For a definite
    verdict ``max_offending`` is the grid maximum of the component that had
    to vanish; for "generic" it is the distance to the nearest class.
    """

    verdict: str
    max_offending: float
    satisfied: tuple[str, ...]
    component_maxima: dict[str, float]


def _require_curved(kappa, s) -> None:
    bad = violation(kappa > CURVATURE_FLOOR, kappa, s)
    if bad is not None:
        raise VanishingCurvatureError(f"kappa = {bad[0]} at s={bad[1]}: Frenet frame undefined")


def frame_decompose(p: SurfacePatch, c, s) -> FrameDecomposition:
    """Dot the position vector into the Frenet frame over an s-grid (a
    float is a grid of one)."""
    fr = frenet(p, c, s, with_torsion=False)
    _require_curved(fr.kappa, s)
    beta = fr.beta
    c_n, c_b = dot(beta, fr.n), dot(beta, fr.b)
    return FrameDecomposition(dot(beta, fr.t), c_n, c_b, nu=c_n, eta=c_b)


def classify_curve(p: SurfacePatch, c, s_grid, tol: float = CLASSIFY_TOL) -> CurveClass:
    """Classify by which frame component of the position vanishes on the grid.

    The grid is evaluated at once.  Where the frame is undefined the verdict
    is "undefined", with the component maxima over the points before it.
    """
    grid = np.asarray(s_grid, dtype=np.float64)
    if not grid.size:
        raise ValueError("classification grid must be nonempty")
    fr = frenet(p, c, grid, with_torsion=False)
    defined = fr.kappa > CURVATURE_FLOOR
    k = grid.size if defined.all() else int(np.argmin(defined))
    maxima = {name: float(np.max(np.abs(dot(fr.beta, axis)[:k]), initial=0.0))
              for name, axis in (("c_t", fr.t), ("c_n", fr.n), ("c_b", fr.b))}
    if k < grid.size:
        return CurveClass("undefined", float("nan"), (), maxima)
    satisfied = tuple(name for name in ("normal", "osculating", "rectifying")
                      if maxima[CLASS_COMPONENT[name]] < tol)
    if satisfied:
        verdict = satisfied[0]
        return CurveClass(verdict, maxima[CLASS_COMPONENT[verdict]], satisfied, maxima)
    return CurveClass("generic", min(maxima.values()), (), maxima)


# ---------------------------------------------------------------------------
# Position synthesis and the within-surface identity


def _synth(pj: PatchJets, cj: CurveJets, nval, eval_, kappa) -> np.ndarray:
    u1, v1, u2, v2 = cj.u1, cj.v1, cj.u2, cj.v2
    bracket_n = (pj.pu * u2 + pj.pv * v2
                 + pj.puu * u1 * u1 + 2.0 * pj.puv * u1 * v1 + pj.pvv * v1 * v1)
    bracket_b = ((u1 * v2 - u2 * v1) * cross(pj.pu, pj.pv)
                 + u1 ** 3 * cross(pj.pu, pj.puu)
                 + 2.0 * u1 * u1 * v1 * cross(pj.pu, pj.puv)
                 + u1 * v1 * v1 * cross(pj.pu, pj.pvv)
                 + u1 * u1 * v1 * cross(pj.pv, pj.puu)
                 + 2.0 * u1 * v1 * v1 * cross(pj.pv, pj.puv)
                 + v1 ** 3 * cross(pj.pv, pj.pvv))
    return (nval / kappa) * bracket_n + (eval_ / kappa) * bracket_b


def synth_position(p: SurfacePatch, c, nu: Expr, eta: Expr, s,
                   kappa=None) -> np.ndarray:
    """Position vector built from patch jets: (nu/kappa) times the
    kappa*n expansion plus (eta/kappa) times the kappa*b expansion.

    With ``kappa=None`` the curvature comes from the Frenet frame on this
    patch (the curve must be unit speed there); passing the source
    curvature instead builds the synthetic image on a pair's target.
    """
    cj = c.jets(s)
    if kappa is None:
        kappa = frenet(p, c, s, with_torsion=False).kappa
    _require_curved(kappa, s)
    return _synth(p.jets(cj.u, cj.v), cj, evaluate(nu, s), evaluate(eta, s), kappa)


def normal_component_identity_residual(p: SurfacePatch, c, nu: Expr, eta: Expr, s):
    """|beta.N - closed form| for the surface-normal component of a
    synthetic normal-curve position.

    The closed form is (nu/kappa) kappa_n + (eta/kappa) W B with B the full
    Beltrami bracket: against the unit normal the eta part carries a single
    W (the W^2 variant belongs to the unnormalized normal Psi_u x Psi_v).
    """
    cj = c.jets(s)
    kappa = frenet(p, c, s, with_torsion=False).kappa
    _require_curved(kappa, s)
    beta = synth_position(p, c, nu, eta, s, kappa=kappa)
    sf = second_fundamental(p, cj.u, cj.v)
    m = p.first_form(cj.u, cj.v)
    kn = normal_curvature_form(sf, cj.u1, cj.v1)
    bracket = beltrami_bracket(christoffel(m), cj)
    nval, eval_ = evaluate(nu, s), evaluate(eta, s)
    closed = (nval / kappa) * kn + (eval_ / kappa) * m.W * bracket
    return abs(dot(beta, sf.n_vec) - closed)


# ---------------------------------------------------------------------------
# Conformal deviation residuals


def _require_embedded(pair: ConformalPair) -> tuple[SurfacePatch, SurfacePatch]:
    if not pair.embedded:
        raise EmbeddingRequiredError(
            "normal/tangential deviation checks need embedded patches on both sides")
    return pair.source, pair.target


def _profile_state(pair: ConformalPair, c, nu: Expr, eta: Expr, s) -> dict:
    """Everything the deviation reports read at s, from one evaluation of
    the curve and of each patch."""
    src, tgt = _require_embedded(pair)
    cj = c.jets(s)
    pj, beta1, beta2 = beta_jets(src, cj)
    require_unit_speed(norm(beta1), s)
    kappa = norm(beta2)
    _require_curved(kappa, s)
    pjt = tgt.jets(cj.u, cj.v)
    m = first_fundamental(src, cj.u, cj.v, pj=pj)
    mt = first_fundamental(tgt, cj.u, cj.v, pj=pjt)
    zj = dilation_jet(pair, cj.u, cj.v, forms=(m, mt))
    nval, eval_ = evaluate(nu, s), evaluate(eta, s)
    return {
        "cj": cj,
        "kappa": kappa,
        "zeta": zj.value,
        "zeta_jet": zj,
        "nu": nval,
        "eta": eval_,
        "pj": pj,
        "pjt": pjt,
        "beta": _synth(pj, cj, nval, eval_, kappa),
        "beta_t": _synth(pjt, cj, nval, eval_, kappa),
        "m": m,
        "mt": mt,
        "sf": second_fundamental(src, cj.u, cj.v, pj=pj),
        "sft": second_fundamental(tgt, cj.u, cj.v, pj=pjt),
    }


def theorem3_report(pair: ConformalPair, c, nu: Expr, eta: Expr, s) -> dict:
    """Normal-component deviation beta~.N~ - zeta^4 beta.N versus
    (nu/kappa)(kn~ - zeta^4 kn) + (eta/kappa) h, with h taken verbatim
    (``as_printed``) and with an extra zeta^4 on h (``zeta4_on_h``)."""
    st = _profile_state(pair, c, nu, eta, s)
    cj, z, kappa = st["cj"], st["zeta"], st["kappa"]
    kn = normal_curvature_form(st["sf"], cj.u1, cj.v1)
    knt = normal_curvature_form(st["sft"], cj.u1, cj.v1)
    th = theta_terms(st["m"], st["zeta_jet"])
    h = h_function(st["m"], th, cj)
    lhs = dot(st["beta_t"], st["sft"].n_vec) - z ** 4 * dot(st["beta"], st["sf"].n_vec)
    nu_term = (st["nu"] / kappa) * (knt - z ** 4 * kn)
    eta_over_kappa = st["eta"] / kappa
    return {
        "zeta": z,
        "kappa_n_src": kn,
        "kappa_n_tgt": knt,
        "h": h,
        "lhs": lhs,
        "as_printed": abs(lhs - nu_term - eta_over_kappa * h),
        "zeta4_on_h": abs(lhs - nu_term - eta_over_kappa * z ** 4 * h),
    }


def theorem3_residual(pair: ConformalPair, c, nu: Expr, eta: Expr, s,
                      correction: str = "as_printed") -> float:
    if correction not in ("as_printed", "zeta4_on_h"):
        raise ValueError(f"correction must be 'as_printed' or 'zeta4_on_h', got {correction!r}")
    return theorem3_report(pair, c, nu, eta, s)[correction]


def tangential_report(pair: ConformalPair, c, nu: Expr, eta: Expr, s,
                      a=None, b=None) -> dict:
    """Tangential deviation residuals against the exact identities.

    The normal-curvature difference enters as W~ kn~ - zeta^2 W kn (the
    combination the unnormalized normal Psi_u x Psi_v produces), with
    signs +v' on the u-equation and -u' on the v-equation;
    T = a Psi_u + b Psi_v defaults to the curve tangent (a, b) = (u', v').
    """
    st = _profile_state(pair, c, nu, eta, s)
    cj, z, kappa = st["cj"], st["zeta"], st["kappa"]
    m, mt = st["m"], st["mt"]
    if a is None:
        a = cj.u1
    if b is None:
        b = cj.v1
    pj, pjt = st["pj"], st["pjt"]
    kn = normal_curvature_form(st["sf"], cj.u1, cj.v1)
    knt = normal_curvature_form(st["sft"], cj.u1, cj.v1)
    g1, g2 = g_functions(m, st["zeta_jet"], cj, nu_over_kappa=st["nu"] / kappa)
    delta = mt.W * knt - z * z * m.W * kn
    eta_over_kappa = st["eta"] / kappa

    lhs_u = dot(st["beta_t"], pjt.pu) - z * z * dot(st["beta"], pj.pu)
    lhs_v = dot(st["beta_t"], pjt.pv) - z * z * dot(st["beta"], pj.pv)
    rhs_u = g1 + eta_over_kappa * cj.v1 * delta
    rhs_v = g2 - eta_over_kappa * cj.u1 * delta
    lhs_T = (dot(st["beta_t"], a * pjt.pu + b * pjt.pv)
             - z * z * dot(st["beta"], a * pj.pu + b * pj.pv))
    rhs_T = a * g1 + b * g2 + eta_over_kappa * delta * (a * cj.v1 - b * cj.u1)
    return {
        "zeta": z,
        "g1": g1,
        "g2": g2,
        "lhs_T": lhs_T,
        "rhs_T": rhs_T,
        "r_u": abs(lhs_u - rhs_u),
        "r_v": abs(lhs_v - rhs_v),
        "r_T": abs(lhs_T - rhs_T),
    }


def tangential_residual(pair: ConformalPair, c, nu: Expr, eta: Expr, s,
                        a=None, b=None) -> tuple:
    rep = tangential_report(pair, c, nu, eta, s, a, b)
    return rep["r_u"], rep["r_v"], rep["r_T"]
