"""Conformal pairs: dilation fields, theta terms and transformation residuals.

A :class:`ConformalPair` holds two surfaces (or bare metrics) over one
shared parameter domain.  The dilation zeta is always estimated from the
metric ratio; a declared dilation expression is cross-checked against the
estimate and, when present, supplies exact derivatives.

The dilation, the Christoffel shift and the pushforward take ``u, v`` as
arrays (a grid of points, evaluated at once; floats are a grid of one),
and the curve residuals take ``s`` the same way.  A caller that already
holds ``pair.forms(u, v)`` passes it as ``forms`` so that the source and
target forms are computed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprkit import Expr, Jet2, eval_grad3, eval_jet2, evaluate
from .geometry import (
    AbstractMetric,
    CurveJets,
    FirstForm,
    SurfacePatch,
    beltrami_bracket,
    beta_jets,
    christoffel,
    cross,
    dot,
    norm,
    require_unit_speed,
    second_fundamental,
    speed_from_form,
    violation,
)

CONFORMALITY_TOL = 1e-8

WEIGHTS = ("W1", "W2")
PAIRINGS = tuple(f"{wt}/{ws}" for wt in WEIGHTS for ws in WEIGHTS)


class ConformalError(Exception):
    pass


class NonConformalError(ConformalError):
    def __init__(self, message: str, residuals: tuple[float, float, float] | None = None):
        super().__init__(message)
        self.residuals = residuals


class EmbeddingRequiredError(ConformalError):
    """The operation needs an embedded patch, not a bare metric."""


class AmbientMapError(ConformalError):
    pass


def _is_patch(member) -> bool:
    return isinstance(member, SurfacePatch)


def _position(patch: SurfacePatch, u, v) -> np.ndarray:
    return np.array([evaluate(c, u, v) for c in (patch.x, patch.y, patch.z)])


@dataclass(frozen=True)
class ConformalPair:
    """Source and target over one domain box, with optional dilation and
    optional ambient map (three expressions over the ambient variables)."""

    source: SurfacePatch | AbstractMetric
    target: SurfacePatch | AbstractMetric
    dilation: Expr | None = None
    ambient_map: tuple[Expr, Expr, Expr] | None = None
    conformality_tol: float = CONFORMALITY_TOL

    def __post_init__(self):
        if self.source.domain != self.target.domain:
            raise ValueError(
                f"pair members must share a domain box: "
                f"{self.source.domain} != {self.target.domain}")
        # the 3x3 interior sample points, in u-major order
        (u0, u1), (v0, v1) = self.source.domain
        k = np.arange(1, 4)
        us, vs = np.repeat(u0 + (u1 - u0) * k / 4, 3), np.tile(v0 + (v1 - v0) * k / 4, 3)
        if self.dilation is not None:
            z = evaluate(self.dilation, us, vs)
            bad = violation(z > 0.0, z, us, vs)
            if bad is not None:
                raise ValueError(f"declared dilation must be positive, got {bad[0]} "
                                 f"at ({bad[1]}, {bad[2]})")
        if self.ambient_map is not None:
            if not self.embedded:
                raise AmbientMapError("ambient map requires embedded patches on both sides")
            p = _position(self.source, us, vs)
            image = np.array([evaluate(c, *p) for c in self.ambient_map])
            gap = norm(image - _position(self.target, us, vs))
            bad = violation(gap <= 1e-9, gap, us, vs)
            if bad is not None:
                raise AmbientMapError(
                    f"ambient map disagrees with target by {bad[0]} at ({bad[1]}, {bad[2]})")

    @property
    def embedded(self) -> bool:
        return _is_patch(self.source) and _is_patch(self.target)

    def forms(self, u, v) -> tuple[FirstForm, FirstForm]:
        return self.source.first_form(u, v), self.target.first_form(u, v)


# ---------------------------------------------------------------------------
# Dilation


def dilation_field(pair: ConformalPair, u, v,
                   forms: tuple[FirstForm, FirstForm] | None = None) -> tuple:
    """Estimate zeta = sqrt(E~/E) and the three conformality residuals
    |zeta^2 E - E~|, |zeta^2 F - F~|, |zeta^2 G - G~|, each normalized by
    max(1, |E~|).  Raises :class:`NonConformalError` past the pair's
    ``conformality_tol``.
    """
    tol = pair.conformality_tol
    m, mt = pair.forms(u, v) if forms is None else forms
    bad = violation(m.E > 1e-12, u, v, m.E)
    if bad is not None:
        raise NonConformalError(
            f"source E = {bad[2]} below regularity floor at ({bad[0]}, {bad[1]})")
    z2 = mt.E / m.E
    bad = violation(z2 > 0.0, u, v, z2)
    if bad is not None:
        raise NonConformalError(
            f"metric ratio E~/E = {bad[2]} not positive at ({bad[0]}, {bad[1]})")
    zeta = np.sqrt(z2)
    scale = np.maximum(1.0, abs(mt.E))
    residuals = (
        abs(z2 * m.E - mt.E) / scale,
        abs(z2 * m.F - mt.F) / scale,
        abs(z2 * m.G - mt.G) / scale,
    )
    bad = violation((residuals[0] <= tol) & (residuals[1] <= tol) & (residuals[2] <= tol),
                    u, v, *residuals)
    if bad is not None:
        raise NonConformalError(
            f"pair is not conformal at ({bad[0]}, {bad[1]}): metric ratio residuals "
            f"(E, F, G) = {bad[2:]}", bad[2:])
    if pair.dilation is not None:
        declared = evaluate(pair.dilation, u, v)
        bad = violation(abs(declared - zeta) <= tol * np.maximum(1.0, abs(zeta)),
                        u, v, declared, zeta)
        if bad is not None:
            raise NonConformalError(
                f"declared dilation {bad[2]} disagrees with estimate {bad[3]} "
                f"at ({bad[0]}, {bad[1]})")
    return zeta, residuals


def dilation_jet(pair: ConformalPair, u, v,
                 forms: tuple[FirstForm, FirstForm] | None = None, zeta=None) -> Jet2:
    """zeta with first partials.  A declared dilation (cross-checked against
    the metric-ratio estimate) supplies exact jets; otherwise the partials
    come from differentiating zeta^2 E = E~.  A caller that has run
    :func:`dilation_field` already passes its estimate as ``zeta``."""
    m, mt = pair.forms(u, v) if forms is None else forms
    if zeta is None:
        zeta, _ = dilation_field(pair, u, v, forms=(m, mt))
    if pair.dilation is not None:
        return eval_jet2(pair.dilation, u, v)
    zu = (mt.E_u - zeta * zeta * m.E_u) / (2.0 * zeta * m.E)
    zv = (mt.E_v - zeta * zeta * m.E_v) / (2.0 * zeta * m.E)
    return Jet2(zeta, du=zu, dv=zv)


# ---------------------------------------------------------------------------
# Theta terms and shift residuals


@dataclass(frozen=True)
class ThetaSet:
    """Conformal Christoffel shift terms; t<i><j><k> holds theta^k_ij."""

    t111: float
    t112: float
    t121: float
    t122: float
    t221: float
    t222: float


def theta_terms(m: FirstForm, zeta_jet: Jet2) -> ThetaSet:
    """The six theta^k_ij of the conformal Christoffel shift.

    All vanish identically when zeta_u = zeta_v = 0 (isometry/homothety).
    """
    z, zu, zv = zeta_jet.value, zeta_jet.du, zeta_jet.dv
    bad = violation(z > 0.0, z)
    if bad is not None:
        raise ValueError(f"dilation must be positive, got {bad[0]}")
    d = z * m.W * m.W
    E, F, G = m.E, m.F, m.G
    return ThetaSet(
        t111=(E * G * zu - 2.0 * F * F * zu + F * E * zv) / d,
        t112=(E * F * zu - E * E * zv) / d,
        t121=(E * G * zv - F * G * zu) / d,
        t122=(E * G * zu - F * E * zv) / d,
        t221=(G * F * zv - G * G * zu) / d,
        t222=(E * G * zv - 2.0 * F * F * zv + F * G * zu) / d,
    )


def christoffel_shift_residual(pair: ConformalPair, u, v,
                               forms: tuple[FirstForm, FirstForm] | None = None) -> tuple:
    """|Gamma~^k_ij - Gamma^k_ij - theta^k_ij| for the six slots."""
    m, mt = pair.forms(u, v) if forms is None else forms
    zj = dilation_jet(pair, u, v, forms=(m, mt))
    g, gt, th = christoffel(m), christoffel(mt), theta_terms(m, zj)
    return tuple(
        abs(getattr(gt, slot) - getattr(g, slot) - getattr(th, "t" + slot[1:]))
        for slot in ("g111", "g112", "g121", "g122", "g221", "g222")
    )


def theta_bracket(th: ThetaSet, cj: CurveJets):
    """Theta analogue of the Beltrami bracket (no u'v'' - u''v' term: it
    cancels in the target-minus-source difference)."""
    u1, v1 = cj.u1, cj.v1
    return (th.t112 * u1 ** 3
            + (2.0 * th.t122 - th.t111) * u1 * u1 * v1
            + (th.t222 - 2.0 * th.t121) * u1 * v1 * v1
            - th.t221 * v1 ** 3)


@dataclass(frozen=True)
class BracketShift:
    b_src: float
    b_tgt: float
    theta_bracket: float
    residual: float


def beltrami_bracket_shift(pair: ConformalPair, c, s) -> BracketShift:
    """Convention-free core of the geodesic-curvature shift:
    B_tgt - B_src = Theta, with B the Beltrami bracket on each side."""
    cj = c.jets(s)
    m, mt = pair.forms(cj.u, cj.v)
    zj = dilation_jet(pair, cj.u, cj.v, forms=(m, mt))
    require_unit_speed(speed_from_form(m, cj.u1, cj.v1), s)
    b_src = beltrami_bracket(christoffel(m), cj)
    b_tgt = beltrami_bracket(christoffel(mt), cj)
    th = theta_bracket(theta_terms(m, zj), cj)
    return BracketShift(b_src, b_tgt, th, abs(b_tgt - b_src - th))


# ---------------------------------------------------------------------------
# Named deviation scalars


def h_function(m: FirstForm, th: ThetaSet, cj: CurveJets):
    """h bracket of the normal-component deviation, times W^2."""
    u1, v1 = cj.u1, cj.v1
    bracket = (u1 ** 3 * th.t112
               - v1 ** 3 * th.t221
               + 2.0 * u1 * u1 * v1 * th.t122
               + u1 * v1 * v1 * th.t222
               - u1 * u1 * v1 * th.t111
               + 2.0 * u1 * v1 * v1 * th.t121)
    return bracket * m.W * m.W


def f_function(m: FirstForm, th: ThetaSet, cj: CurveJets):
    """f = (theta Beltrami bracket) * W^2, the geodesic-curvature deviation."""
    return theta_bracket(th, cj) * m.W * m.W


def g_functions(m: FirstForm, zeta_jet: Jet2, cj: CurveJets,
                nu_over_kappa) -> tuple:
    """Tangential deviation scalars g1, g2."""
    z, zu, zv = zeta_jet.value, zeta_jet.du, zeta_jet.dv
    u1, v1 = cj.u1, cj.v1
    g1 = nu_over_kappa * (u1 * u1 * z * zu * m.E
                          + 2.0 * u1 * v1 * z * zv * m.E
                          + v1 * v1 * (2.0 * z * zv * m.F - z * zu * m.G))
    g2 = nu_over_kappa * (u1 * u1 * (2.0 * z * zu * m.F - z * zv * m.E)
                          + 2.0 * u1 * v1 * z * zu * m.G
                          + v1 * v1 * z * zv * m.G)
    return g1, g2


# ---------------------------------------------------------------------------
# Geodesic-curvature deviation report


@dataclass(frozen=True)
class DeviationReport:
    """Record of the geodesic-curvature deviation identity over an s-grid
    (each number is an array, 0-d at one s).

    ``i20_residuals`` holds |kg~(i) - zeta^2 kg(j) - f| keyed by
    "<target weight>/<source weight>"; ``passing`` lists the pairings below
    tolerance at every point.
    """

    zeta: float
    h: float
    f: float
    kappa_g_src: dict[str, float]
    kappa_g_tgt: dict[str, float]
    i20_residuals: dict[str, float]
    passing: tuple[str, ...]


def geodesic_deviation_report(pair: ConformalPair, c, s,
                              tol: float = 1e-8) -> DeviationReport:
    cj = c.jets(s)
    forms = m, mt = pair.forms(cj.u, cj.v)
    zeta, _ = dilation_field(pair, cj.u, cj.v, forms=forms)
    zj = dilation_jet(pair, cj.u, cj.v, forms=forms, zeta=zeta)
    require_unit_speed(speed_from_form(m, cj.u1, cj.v1), s)
    th = theta_terms(m, zj)
    b_src = beltrami_bracket(christoffel(m), cj)
    b_tgt = beltrami_bracket(christoffel(mt), cj)
    f = f_function(m, th, cj)
    h = h_function(m, th, cj)
    kg_src = {"W1": b_src * m.W, "W2": b_src * m.W * m.W}
    kg_tgt = {"W1": b_tgt * mt.W, "W2": b_tgt * mt.W * mt.W}
    residuals = {
        f"{wt}/{ws}": abs(kg_tgt[wt] - zeta * zeta * kg_src[ws] - f)
        for wt in WEIGHTS for ws in WEIGHTS
    }
    passing = tuple(k for k in PAIRINGS if np.all(residuals[k] < tol))
    return DeviationReport(zeta=zeta, h=h, f=f, kappa_g_src=kg_src, kappa_g_tgt=kg_tgt,
                           i20_residuals=residuals, passing=passing)


def image_geodesic_curvature(pair: ConformalPair, c, s):
    """Brute-force geodesic curvature of the image curve on the target.

    Uses the general-speed formula beta''.(N x beta')/|beta'|^3 with jets of
    the target patch along the same parameter curve; independent of the
    Beltrami route and of any weight convention.
    """
    if not _is_patch(pair.target):
        raise EmbeddingRequiredError("direct image curvature needs an embedded target")
    cj = c.jets(s)
    pj, beta1, beta2 = beta_jets(pair.target, cj)
    n_vec = second_fundamental(pair.target, cj.u, cj.v, pj=pj).n_vec
    return dot(beta2, cross(n_vec, beta1)) / norm(beta1) ** 3


# ---------------------------------------------------------------------------
# Ambient pushforward


def ambient_jacobian(map3: tuple[Expr, Expr, Expr], p) -> np.ndarray:
    """3x3 Jacobian of an ambient map at the point p, by forward-mode jets;
    (3, 3, n) at the points of a (3, n) array p."""
    rows = []
    for comp in map3:
        g = eval_grad3(comp, p[0], p[1], p[2])
        rows.append([g.gx, g.gy, g.gz])
    return np.array(rows)


def pushforward_residual(pair: ConformalPair, u, v,
                         forms: tuple[FirstForm, FirstForm] | None = None) -> tuple:
    """|Psi~_u - zeta (J* Psi_u)| and |Psi~_v - zeta (J* Psi_v)|.

    For an ambient-conformal map the Jacobian factors as zeta times a
    length-preserving part; J* here is that part (Jacobian / zeta), so the
    residual compares target patch jets against the dilation-times-isometry
    pushforward of the source jets.
    """
    if pair.ambient_map is None:
        raise AmbientMapError("pair has no ambient map")
    zeta, _ = dilation_field(pair, u, v, forms=forms)
    pj = pair.source.jets(u, v)
    pjt = pair.target.jets(u, v)
    jac_star = ambient_jacobian(pair.ambient_map, pj.p) / zeta

    def push(x):
        return np.einsum("ij...,j...->i...", jac_star, x)

    return norm(pjt.pu - zeta * push(pj.pu)), norm(pjt.pv - zeta * push(pj.pv))
