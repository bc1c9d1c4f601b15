"""Frenet decomposition of position vectors, curve classification, and the
normal/tangential deviation residuals over conformal pairs.

Synthetic positions: the image position beta~ on the target of a pair is
always rebuilt from the same nu, eta profiles and the source curvature
(the nu~/kappa~ = nu/kappa standing assumption treated as a definition),
which is what makes the deviation residuals well-posed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import conformal
from .conformal import ConformalError, ConformalPair
from .exprkit import Expr, evaluate
from .geometry import (
    CURVATURE_FLOOR,
    CurveJets,
    GeometryError,
    PatchJets,
    SurfacePatch,
    beta_jets,
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
VERDICTS = (*CLASS_COMPONENT, "generic", "undefined")


class FrameDecomposition(NamedTuple):
    """Components of the position vector in the Frenet frame; c_n = beta.n
    and c_b = beta.b are the normal-curve coefficients nu and eta."""

    c_t: float
    c_n: float
    c_b: float


class CurveClass(NamedTuple):
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
        raise GeometryError(f"kappa = {bad[0]} at s={bad[1]}: Frenet frame undefined")


def frame_decompose(p: SurfacePatch, c, s) -> FrameDecomposition:
    """Dot the position vector into the Frenet frame over an s-grid (a
    float is a grid of one)."""
    fr = frenet(p, c, s, with_torsion=False)
    _require_curved(fr.kappa, s)
    beta = fr.beta
    return FrameDecomposition(dot(beta, fr.t), dot(beta, fr.n), dot(beta, fr.b))


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
# Position synthesis


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


def _curved_jets(p: SurfacePatch, c, s) -> tuple[CurveJets, PatchJets, np.ndarray]:
    """Curve jets, patch jets along the curve and its curvature, from one
    evaluation of each; the curve must be unit speed and curved on ``p``."""
    cj = c.jets(s)
    pj, beta1, beta2 = beta_jets(p, cj)
    require_unit_speed(norm(beta1), s)
    kappa = norm(beta2)
    _require_curved(kappa, s)
    return cj, pj, kappa


def synth_position(p: SurfacePatch, c, nu: Expr, eta: Expr, s) -> np.ndarray:
    """Position vector built from patch jets: (nu/kappa) times the kappa*n
    expansion plus (eta/kappa) times the kappa*b expansion, with kappa the
    curve's curvature on ``p`` (a pair's image reads the source's instead)."""
    cj, pj, kappa = _curved_jets(p, c, s)
    return _synth(pj, cj, *evaluate((nu, eta), s), kappa)


# ---------------------------------------------------------------------------
# Conformal deviation residuals


def _profile_state(pair: ConformalPair, c, nu: Expr, eta: Expr, s) -> dict:
    """Everything the deviation reports read at s, from one evaluation of
    the curve and of each patch."""
    if not pair.embedded:
        raise ConformalError(
            "normal/tangential deviation checks need embedded patches on both sides")
    cj, pj, kappa = _curved_jets(pair.source, c, s)
    pjt = pair.target.jets(cj.u, cj.v, 2)
    m = first_fundamental(pj, cj.u, cj.v)
    mt = first_fundamental(pjt, cj.u, cj.v)
    _, zj = conformal.dilation_jet(pair, cj.u, cj.v, m, mt)
    nval, eval_ = evaluate((nu, eta), s)
    return {
        "cj": cj,
        "kappa": kappa,
        "zeta_jet": zj,
        "nu": nval,
        "eta": eval_,
        "pj": pj,
        "pjt": pjt,
        "beta": _synth(pj, cj, nval, eval_, kappa),
        "beta_t": _synth(pjt, cj, nval, eval_, kappa),
        "m": m,
        "mt": mt,
        "sf": second_fundamental(pj, cj.u, cj.v),
        "sft": second_fundamental(pjt, cj.u, cj.v),
    }


def theorem3_report(pair: ConformalPair, c, nu: Expr, eta: Expr, s) -> dict:
    """Normal-component deviation beta~.N~ - zeta^4 beta.N versus
    (nu/kappa)(kn~ - zeta^4 kn) + (eta/kappa) h, with h taken verbatim
    (``as_printed``) and with an extra zeta^4 on h (``zeta4_on_h``)."""
    st = _profile_state(pair, c, nu, eta, s)
    cj, z, kappa = st["cj"], st["zeta_jet"].value, st["kappa"]
    kn = normal_curvature_form(st["sf"], cj.u1, cj.v1)
    knt = normal_curvature_form(st["sft"], cj.u1, cj.v1)
    th = conformal.theta_terms(st["m"], st["zeta_jet"])
    h = conformal.h_function(st["m"], th, cj)
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


def tangential_report(pair: ConformalPair, c, nu: Expr, eta: Expr, s) -> dict:
    """Tangential deviation residuals against the exact identities.

    The normal-curvature difference enters as W~ kn~ - zeta^2 W kn (the
    combination the unnormalized normal Psi_u x Psi_v produces), with
    signs +v' on the u-equation and -u' on the v-equation.  ``r_T`` is
    along the curve tangent beta' = u' Psi_u + v' Psi_v, where that term
    cancels; along any other T = a Psi_u + b Psi_v the identity is the
    a, b combination of the u- and v-equations that ``r_u`` and ``r_v`` check.
    """
    st = _profile_state(pair, c, nu, eta, s)
    cj, z, kappa = st["cj"], st["zeta_jet"].value, st["kappa"]
    m, mt = st["m"], st["mt"]
    pj, pjt = st["pj"], st["pjt"]
    kn = normal_curvature_form(st["sf"], cj.u1, cj.v1)
    knt = normal_curvature_form(st["sft"], cj.u1, cj.v1)
    g1, g2 = conformal.g_functions(m, st["zeta_jet"], cj, nu_over_kappa=st["nu"] / kappa)
    delta = mt.W * knt - z * z * m.W * kn
    eta_over_kappa = st["eta"] / kappa

    lhs_u = dot(st["beta_t"], pjt.pu) - z * z * dot(st["beta"], pj.pu)
    lhs_v = dot(st["beta_t"], pjt.pv) - z * z * dot(st["beta"], pj.pv)
    rhs_u = g1 + eta_over_kappa * cj.v1 * delta
    rhs_v = g2 - eta_over_kappa * cj.u1 * delta
    lhs_T = (dot(st["beta_t"], cj.u1 * pjt.pu + cj.v1 * pjt.pv)
             - z * z * dot(st["beta"], cj.u1 * pj.pu + cj.v1 * pj.pv))
    rhs_T = cj.u1 * g1 + cj.v1 * g2
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
