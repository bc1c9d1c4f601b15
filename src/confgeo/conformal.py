"""Conformal pairs: dilation fields, theta terms and transformation residuals.

A :class:`ConformalPair` holds two surfaces (or bare metrics) over one
shared parameter domain.  The dilation zeta is always estimated from the
metric ratio; a declared dilation expression supplies exact derivatives,
and is cross-checked against the estimate where its jet is taken.

The dilation, the Christoffel shift and the pushforward take ``u, v`` as
arrays (a grid of points, evaluated at once; floats are a grid of one),
and the curve residuals take ``s`` the same way.  Each surface suite reads
one report, :func:`christoffel_shift_report` or :func:`pushforward_report`,
which evaluates each patch once and returns zeta beside the residuals; the
dilation functions take the two first forms their caller holds, so that no
patch is evaluated twice.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exprkit import Expr, Jet2, derived, eval_grad3, eval_jet2, evaluate
from .geometry import (
    AbstractMetric,
    ChristoffelSet,
    CurveJets,
    FirstForm,
    SurfacePatch,
    beltrami_bracket,
    beta_jets,
    bracket_cubic,
    christoffel,
    cross,
    dot,
    first_fundamental,
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
    """A pair that is not conformal, or whose declared dilation or ambient
    map disagrees, or that lacks the embedding or the map a check needs;
    the message says where and by how much."""


class ConformalPair:
    """Source and target over one domain box, with optional dilation and
    optional ambient map (three expressions over the ambient variables)."""

    __slots__ = ("source", "target", "dilation", "ambient_map", "conformality_tol")

    def __init__(self, source: SurfacePatch | AbstractMetric,
                 target: SurfacePatch | AbstractMetric, dilation: Expr | None = None,
                 ambient_map: tuple[Expr, Expr, Expr] | None = None,
                 conformality_tol: float = CONFORMALITY_TOL):
        self.source, self.target, self.dilation = source, target, dilation
        self.ambient_map, self.conformality_tol = ambient_map, conformality_tol
        if self.source.domain != self.target.domain:
            raise ConformalError(
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
                raise ConformalError(f"declared dilation must be positive, got {bad[0]} "
                                     f"at ({bad[1]}, {bad[2]})")
        if self.ambient_map is not None:
            if not self.embedded:
                raise ConformalError("ambient map requires embedded patches on both sides")
            p = np.array(evaluate(self.source[:3], us, vs))  # x, y, z in one walk
            image = np.array(evaluate(self.ambient_map, *p))
            gap = norm(image - np.array(evaluate(self.target[:3], us, vs)))
            bad = violation(gap <= 1e-9, gap, us, vs)
            if bad is not None:
                raise ConformalError(
                    f"ambient map disagrees with target by {bad[0]} at ({bad[1]}, {bad[2]})")

    @property
    def embedded(self) -> bool:
        return isinstance(self.source, SurfacePatch) and isinstance(self.target, SurfacePatch)

    def forms(self, u, v) -> tuple[FirstForm, FirstForm]:
        return self.source.first_form(u, v), self.target.first_form(u, v)


# ---------------------------------------------------------------------------
# Dilation


def dilation_field(pair: ConformalPair, u, v, m: FirstForm, mt: FirstForm):
    """Estimate zeta = sqrt(E~/E) from ``m`` and ``mt``, the source's and
    the target's first forms at ``u, v``.  Raises :class:`ConformalError`
    where a conformality residual |zeta^2 E - E~|, |zeta^2 F - F~| or
    |zeta^2 G - G~| exceeds the pair's ``conformality_tol`` times the size
    of its own target coefficient, max(1, |E~|), max(1, sqrt|E~ G~|) and
    max(1, |G~|), so that no verdict hangs on the units of u and v.  A
    declared dilation is not read here: :func:`dilation_jet` checks it
    against this estimate.
    """
    tol = pair.conformality_tol
    # both first forms have E > 0, but their ratio may underflow to 0
    z2 = mt.E / m.E
    bad = violation(z2 > 0.0, u, v, z2)
    if bad is not None:
        raise ConformalError(
            f"metric ratio E~/E = {bad[2]} not positive at ({bad[0]}, {bad[1]})")
    residuals = (abs(z2 * m.E - mt.E), abs(z2 * m.F - mt.F), abs(z2 * m.G - mt.G))
    ok = ((residuals[0] <= tol * np.maximum(1.0, abs(mt.E)))
          & (residuals[1] <= tol * np.maximum(1.0, np.sqrt(abs(mt.E * mt.G))))
          & (residuals[2] <= tol * np.maximum(1.0, abs(mt.G))))
    bad = violation(ok, u, v, *residuals)
    if bad is not None:
        raise ConformalError(
            f"pair is not conformal at ({bad[0]}, {bad[1]}): metric ratio residuals "
            f"(E, F, G) = {bad[2:]}")
    return np.sqrt(z2)


@derived
def dilation_jet(pair: ConformalPair, u, v, m: FirstForm, mt: FirstForm) -> tuple:
    """``(zeta, jet)``: the estimate of :func:`dilation_field` from the
    first forms ``m, mt``, and zeta's jet to their order (first partials,
    or none from forms without them).  A declared dilation supplies an
    exact jet, and is checked here for every pair report: where it is not
    positive or not within ``conformality_tol`` of the estimate,
    :class:`ConformalError` names the first such point.  Otherwise the
    partials come from differentiating zeta^2 E = E~."""
    zeta = dilation_field(pair, u, v, m, mt)
    if pair.dilation is not None:
        zj = eval_jet2(pair.dilation, u, v, 0 if m.E_u is None else 1)
        tol = pair.conformality_tol * np.maximum(1.0, abs(zeta))
        bad = violation((zj.value > 0.0) & (abs(zj.value - zeta) <= tol), u, v, zj.value, zeta)
        if bad is not None:
            raise ConformalError(f"declared dilation {bad[2]} disagrees with estimate "
                                 f"{bad[3]} at ({bad[0]}, {bad[1]})")
        return zeta, zj
    if m.E_u is None:
        return zeta, Jet2(zeta)
    zu = (mt.E_u - zeta * zeta * m.E_u) / (2.0 * zeta * m.E)
    zv = (mt.E_v - zeta * zeta * m.E_v) / (2.0 * zeta * m.E)
    return zeta, Jet2(zeta, du=zu, dv=zv)


# ---------------------------------------------------------------------------
# Theta terms and shift residuals


@derived
def theta_terms(m: FirstForm, zeta_jet: Jet2) -> ChristoffelSet:
    """The six theta^k_ij = Gamma~^k_ij - Gamma^k_ij, each in its Gamma's slot.

    All vanish identically when zeta_u = zeta_v = 0 (isometry/homothety).
    ``zeta_jet`` is the jet of :func:`dilation_jet`, whose value is positive.
    """
    z, zu, zv = zeta_jet.value, zeta_jet.du, zeta_jet.dv
    d = z * m.W * m.W
    E, F, G = m.E, m.F, m.G
    return ChristoffelSet(
        g111=(E * G * zu - 2.0 * F * F * zu + F * E * zv) / d,
        g112=(E * F * zu - E * E * zv) / d,
        g121=(E * G * zv - F * G * zu) / d,
        g122=(E * G * zu - F * E * zv) / d,
        g221=(G * F * zv - G * G * zu) / d,
        g222=(E * G * zv - 2.0 * F * F * zv + F * G * zu) / d,
    )


def christoffel_shift_report(pair: ConformalPair, u, v) -> tuple:
    """zeta and |Gamma~^k_ij - Gamma^k_ij - theta^k_ij| for the six slots,
    all read from one evaluation of the two first forms."""
    m, mt = pair.forms(u, v)
    zeta, zj = dilation_jet(pair, u, v, m, mt)
    return (zeta, *(abs(gt - g - th) for gt, g, th in
                    zip(christoffel(mt), christoffel(m), theta_terms(m, zj))))


def christoffel_shift_residual(pair: ConformalPair, u, v) -> tuple:
    """The six residuals of :func:`christoffel_shift_report`."""
    return christoffel_shift_report(pair, u, v)[1:]


class BracketShift(NamedTuple):
    b_src: float
    b_tgt: float
    theta_bracket: float
    residual: float


def beltrami_bracket_shift(pair: ConformalPair, c, s) -> BracketShift:
    """Convention-free core of the geodesic-curvature shift:
    B_tgt - B_src = Theta, with B the Beltrami bracket on each side."""
    cj = c.jets(s)
    m, mt = pair.forms(cj.u, cj.v)
    _, zj = dilation_jet(pair, cj.u, cj.v, m, mt)
    require_unit_speed(speed_from_form(m, cj.u1, cj.v1), s)
    b_src = beltrami_bracket(christoffel(m), cj)
    b_tgt = beltrami_bracket(christoffel(mt), cj)
    th = bracket_cubic(theta_terms(m, zj), cj.u1, cj.v1)
    return BracketShift(b_src, b_tgt, th, abs(b_tgt - b_src - th))


# ---------------------------------------------------------------------------
# Named deviation scalars


def h_function(m: FirstForm, th: ChristoffelSet, cj: CurveJets):
    """h bracket of the normal-component deviation, times W^2; the bracket is
    ``bracket_cubic(th, u', v')`` but for the sign of its 2 u'v'^2 theta^1_12 term."""
    t111, t112, t121, t122, t221, t222 = th
    u1, v1 = cj.u1, cj.v1
    bracket = (u1 ** 3 * t112
               - v1 ** 3 * t221
               + 2.0 * u1 * u1 * v1 * t122
               + u1 * v1 * v1 * t222
               - u1 * u1 * v1 * t111
               + 2.0 * u1 * v1 * v1 * t121)
    return bracket * m.W * m.W


def f_function(m: FirstForm, th: ChristoffelSet, cj: CurveJets):
    """f = (theta Beltrami bracket) * W^2, the geodesic-curvature deviation
    (no u'v'' - u''v' term: it cancels in the target-minus-source difference)."""
    return bracket_cubic(th, cj.u1, cj.v1) * m.W * m.W


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


class DeviationReport(NamedTuple):
    """Record of the geodesic-curvature deviation identity over an s-grid
    (each number is an array, 0-d at one s).

    ``i20_residuals`` holds |kg~(i) - zeta^2 kg(j) - f| keyed by
    "<target weight>/<source weight>".
    """

    zeta: float
    h: float
    f: float
    kappa_g_src: dict[str, float]
    kappa_g_tgt: dict[str, float]
    i20_residuals: dict[str, float]


def geodesic_deviation_report(pair: ConformalPair, c, s) -> DeviationReport:
    cj = c.jets(s)
    m, mt = pair.forms(cj.u, cj.v)
    zeta, zj = dilation_jet(pair, cj.u, cj.v, m, mt)
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
    return DeviationReport(zeta=zeta, h=h, f=f, kappa_g_src=kg_src, kappa_g_tgt=kg_tgt,
                           i20_residuals=residuals)


def image_geodesic_curvature(pair: ConformalPair, c, s):
    """Brute-force geodesic curvature of the image curve on the target.

    Uses the general-speed formula beta''.(N x beta')/|beta'|^3 with jets of
    the target patch along the same parameter curve; independent of the
    Beltrami route and of any weight convention.
    """
    if not isinstance(pair.target, SurfacePatch):
        raise ConformalError("direct image curvature needs an embedded target")
    cj = c.jets(s)
    pj, beta1, beta2 = beta_jets(pair.target, cj)
    n_vec = second_fundamental(pj, cj.u, cj.v).n_vec
    # np.power, not a numpy scalar's ``**``: a point gets its grid element's bits
    return dot(beta2, cross(n_vec, beta1)) / np.power(norm(beta1), 3)


# ---------------------------------------------------------------------------
# Ambient pushforward


def ambient_jacobian(map3: tuple[Expr, Expr, Expr], p) -> np.ndarray:
    """3x3 Jacobian of an ambient map at the point p, by forward-mode jets;
    (3, 3, n) at the points of a (3, n) array p."""
    return np.array([[g.gx, g.gy, g.gz] for g in eval_grad3(map3, *p)])


def pushforward_report(pair: ConformalPair, u, v) -> tuple:
    """zeta, |Psi~_u - zeta (J* Psi_u)| and |Psi~_v - zeta (J* Psi_v)|.

    For an ambient-conformal map the Jacobian factors as zeta times a
    length-preserving part; J* here is that part (Jacobian / zeta), so the
    residual compares target patch jets against the dilation-times-isometry
    pushforward of the source jets.  Each patch is walked once, to order 1:
    its jets give the first forms, and so zeta, and the residual.
    """
    if pair.ambient_map is None:
        raise ConformalError("pair has no ambient map")
    pj, pjt = pair.source.jets(u, v, 1), pair.target.jets(u, v, 1)
    # the residual reads no partial of zeta, but a declared zeta must hold
    zeta, _ = dilation_jet(pair, u, v, first_fundamental(pj, u, v),
                           first_fundamental(pjt, u, v))
    jac_star = ambient_jacobian(pair.ambient_map, pj.p) / zeta

    def push(x):
        # three products summed in turn, so a point gets its grid element's
        # bits (einsum of one point calls BLAS, which rounds apart)
        return jac_star[:, 0] * x[0] + jac_star[:, 1] * x[1] + jac_star[:, 2] * x[2]

    return zeta, norm(pjt.pu - zeta * push(pj.pu)), norm(pjt.pv - zeta * push(pj.pv))


def pushforward_residual(pair: ConformalPair, u, v) -> tuple:
    """The two residuals of :func:`pushforward_report`."""
    return pushforward_report(pair, u, v)[1:]
