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
    SurfacePatch,
    VanishingCurvatureError,
    beltrami_bracket,
    christoffel,
    frenet,
    normal_curvature_form,
    second_fundamental,
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
    s_grid: tuple[float, ...]
    satisfied: tuple[str, ...]
    component_maxima: dict[str, float]


def frame_decompose(p: SurfacePatch, c, s: float) -> FrameDecomposition:
    """Dot the position vector into the Frenet frame at s."""
    fr = frenet(p, c, s, with_torsion=False)
    if fr.n is None:
        raise VanishingCurvatureError(
            f"kappa = {fr.kappa} at s={s}: Frenet frame undefined")
    beta = fr.beta
    c_t = float(beta @ fr.t)
    c_n = float(beta @ fr.n)
    c_b = float(beta @ fr.b)
    return FrameDecomposition(c_t, c_n, c_b, nu=c_n, eta=c_b)


def classify_curve(p: SurfacePatch, c, s_grid, tol: float = CLASSIFY_TOL) -> CurveClass:
    """Classify by which frame component of the position vanishes on the grid."""
    grid = tuple(float(s) for s in s_grid)
    if not grid:
        raise ValueError("classification grid must be nonempty")
    maxima = {"c_t": 0.0, "c_n": 0.0, "c_b": 0.0}
    for s in grid:
        try:
            d = frame_decompose(p, c, s)
        except VanishingCurvatureError:
            return CurveClass("undefined", float("nan"), grid, (), maxima)
        maxima["c_t"] = max(maxima["c_t"], abs(d.c_t))
        maxima["c_n"] = max(maxima["c_n"], abs(d.c_n))
        maxima["c_b"] = max(maxima["c_b"], abs(d.c_b))
    satisfied = tuple(name for name in ("normal", "osculating", "rectifying")
                      if maxima[CLASS_COMPONENT[name]] < tol)
    if satisfied:
        verdict = satisfied[0]
        return CurveClass(verdict, maxima[CLASS_COMPONENT[verdict]], grid,
                          satisfied, maxima)
    return CurveClass("generic", min(maxima.values()), grid, (), maxima)


# ---------------------------------------------------------------------------
# Position synthesis and the within-surface identity


def synth_position(p: SurfacePatch, c, nu: Expr, eta: Expr, s: float,
                   kappa: float | None = None) -> np.ndarray:
    """Position vector built from patch jets: (nu/kappa) times the
    kappa*n expansion plus (eta/kappa) times the kappa*b expansion.

    With ``kappa=None`` the curvature comes from the Frenet frame on this
    patch (the curve must be unit speed there); passing the source
    curvature instead builds the synthetic image on a pair's target.
    """
    cj = c.jets(s)
    if kappa is None:
        kappa = frenet(p, c, s, with_torsion=False).kappa
    if kappa <= CURVATURE_FLOOR:
        raise VanishingCurvatureError(f"kappa = {kappa} at s={s}")
    pj = p.jets(cj.u, cj.v)
    u1, v1, u2, v2 = cj.u1, cj.v1, cj.u2, cj.v2
    nval = evaluate(nu, s)
    eval_ = evaluate(eta, s)
    bracket_n = (pj.pu * u2 + pj.pv * v2
                 + pj.puu * u1 * u1 + 2.0 * pj.puv * u1 * v1 + pj.pvv * v1 * v1)
    bracket_b = ((u1 * v2 - u2 * v1) * np.cross(pj.pu, pj.pv)
                 + u1 ** 3 * np.cross(pj.pu, pj.puu)
                 + 2.0 * u1 * u1 * v1 * np.cross(pj.pu, pj.puv)
                 + u1 * v1 * v1 * np.cross(pj.pu, pj.pvv)
                 + u1 * u1 * v1 * np.cross(pj.pv, pj.puu)
                 + 2.0 * u1 * v1 * v1 * np.cross(pj.pv, pj.puv)
                 + v1 ** 3 * np.cross(pj.pv, pj.pvv))
    return (nval / kappa) * bracket_n + (eval_ / kappa) * bracket_b


def normal_component_identity_residual(p: SurfacePatch, c, nu: Expr, eta: Expr,
                                       s: float) -> float:
    """|beta.N - closed form| for the surface-normal component of a
    synthetic normal-curve position.

    The closed form is (nu/kappa) kappa_n + (eta/kappa) W B with B the full
    Beltrami bracket: against the unit normal the eta part carries a single
    W (the W^2 variant belongs to the unnormalized normal Psi_u x Psi_v).
    """
    cj = c.jets(s)
    kappa = frenet(p, c, s, with_torsion=False).kappa
    if kappa <= CURVATURE_FLOOR:
        raise VanishingCurvatureError(f"kappa = {kappa} at s={s}")
    beta = synth_position(p, c, nu, eta, s, kappa=kappa)
    sf = second_fundamental(p, cj.u, cj.v)
    m = p.first_form(cj.u, cj.v)
    kn = normal_curvature_form(sf, cj.u1, cj.v1)
    bracket = beltrami_bracket(christoffel(m), cj)
    nval, eval_ = evaluate(nu, s), evaluate(eta, s)
    closed = (nval / kappa) * kn + (eval_ / kappa) * m.W * bracket
    return abs(float(beta @ sf.n_vec) - closed)


# ---------------------------------------------------------------------------
# Conformal deviation residuals


def _require_embedded(pair: ConformalPair) -> tuple[SurfacePatch, SurfacePatch]:
    if not pair.embedded:
        raise EmbeddingRequiredError(
            "normal/tangential deviation checks need embedded patches on both sides")
    return pair.source, pair.target


def _profile_state(pair: ConformalPair, c, nu: Expr, eta: Expr, s: float) -> dict:
    src, tgt = _require_embedded(pair)
    cj = c.jets(s)
    kappa = frenet(src, c, s, with_torsion=False).kappa
    if kappa <= CURVATURE_FLOOR:
        raise VanishingCurvatureError(f"kappa = {kappa} at s={s}")
    m, mt = src.first_form(cj.u, cj.v), tgt.first_form(cj.u, cj.v)
    zj = dilation_jet(pair, cj.u, cj.v, forms=(m, mt))
    return {
        "cj": cj,
        "kappa": kappa,
        "zeta": zj.value,
        "zeta_jet": zj,
        "nu": evaluate(nu, s),
        "eta": evaluate(eta, s),
        "beta": synth_position(src, c, nu, eta, s, kappa=kappa),
        "beta_t": synth_position(tgt, c, nu, eta, s, kappa=kappa),
        "m": m,
        "mt": mt,
        "sf": second_fundamental(src, cj.u, cj.v),
        "sft": second_fundamental(tgt, cj.u, cj.v),
    }


def theorem3_report(pair: ConformalPair, c, nu: Expr, eta: Expr, s: float) -> dict:
    """Normal-component deviation beta~.N~ - zeta^4 beta.N versus
    (nu/kappa)(kn~ - zeta^4 kn) + (eta/kappa) h, with h taken verbatim
    (``as_printed``) and with an extra zeta^4 on h (``zeta4_on_h``)."""
    st = _profile_state(pair, c, nu, eta, s)
    cj, z, kappa = st["cj"], st["zeta"], st["kappa"]
    kn = normal_curvature_form(st["sf"], cj.u1, cj.v1)
    knt = normal_curvature_form(st["sft"], cj.u1, cj.v1)
    th = theta_terms(st["m"], st["zeta_jet"])
    h = h_function(st["m"], th, cj)
    lhs = float(st["beta_t"] @ st["sft"].n_vec) - z ** 4 * float(st["beta"] @ st["sf"].n_vec)
    nu_term = (st["nu"] / kappa) * (knt - z ** 4 * kn)
    eta_over_kappa = st["eta"] / kappa
    return {
        "s": s,
        "zeta": z,
        "kappa_n_src": kn,
        "kappa_n_tgt": knt,
        "h": h,
        "lhs": lhs,
        "as_printed": abs(lhs - nu_term - eta_over_kappa * h),
        "zeta4_on_h": abs(lhs - nu_term - eta_over_kappa * z ** 4 * h),
    }


def theorem3_residual(pair: ConformalPair, c, nu: Expr, eta: Expr, s: float,
                      correction: str = "as_printed") -> float:
    if correction not in ("as_printed", "zeta4_on_h"):
        raise ValueError(f"correction must be 'as_printed' or 'zeta4_on_h', got {correction!r}")
    return theorem3_report(pair, c, nu, eta, s)[correction]


def tangential_report(pair: ConformalPair, c, nu: Expr, eta: Expr, s: float,
                      a: float | None = None, b: float | None = None) -> dict:
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
    src, tgt = pair.source, pair.target
    pj = src.jets(cj.u, cj.v)
    pjt = tgt.jets(cj.u, cj.v)
    kn = normal_curvature_form(st["sf"], cj.u1, cj.v1)
    knt = normal_curvature_form(st["sft"], cj.u1, cj.v1)
    g1, g2 = g_functions(m, st["zeta_jet"], cj, nu_over_kappa=st["nu"] / kappa)
    delta = mt.W * knt - z * z * m.W * kn
    eta_over_kappa = st["eta"] / kappa

    lhs_u = float(st["beta_t"] @ pjt.pu) - z * z * float(st["beta"] @ pj.pu)
    lhs_v = float(st["beta_t"] @ pjt.pv) - z * z * float(st["beta"] @ pj.pv)
    rhs_u = g1 + eta_over_kappa * cj.v1 * delta
    rhs_v = g2 - eta_over_kappa * cj.u1 * delta
    lhs_T = (float(st["beta_t"] @ (a * pjt.pu + b * pjt.pv))
             - z * z * float(st["beta"] @ (a * pj.pu + b * pj.pv)))
    rhs_T = a * g1 + b * g2 + eta_over_kappa * delta * (a * cj.v1 - b * cj.u1)
    return {
        "s": s,
        "zeta": z,
        "g1": g1,
        "g2": g2,
        "delta_kn": delta,
        "lhs_u": lhs_u,
        "lhs_v": lhs_v,
        "lhs_T": lhs_T,
        "rhs_T": rhs_T,
        "r_u": abs(lhs_u - rhs_u),
        "r_v": abs(lhs_v - rhs_v),
        "r_T": abs(lhs_T - rhs_T),
    }


def tangential_residual(pair: ConformalPair, c, nu: Expr, eta: Expr, s: float,
                        a: float | None = None, b: float | None = None,
                        ) -> tuple[float, float, float]:
    rep = tangential_report(pair, c, nu, eta, s, a, b)
    return rep["r_u"], rep["r_v"], rep["r_T"]
