"""Fundamental forms, Christoffel symbols, Frenet frames and curvatures.

Surfaces come in two flavours: an embedded patch (three coordinate
expressions over ``u, v``) or a bare metric (``E, F, G`` expressions).
Everything downstream of the first fundamental form is intrinsic and uses
one shared code path for both.

Orientation convention: the unit surface normal is ``Psi_u x Psi_v / W``
everywhere; every signed quantity (second-form coefficients, normal
curvature) inherits it.

Patch jets, the fundamental forms and the Christoffel symbols take
``u, v`` as arrays (a grid of points, evaluated at once); curve jets and
Frenet data take ``s`` the same way.  There is one numpy path: a point is
a grid of one, given as floats, whose values come out 0-d.  Vectors are
``(3, n)`` arrays (``(3,)`` at a point), and every check that fails names
the first offending grid point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exprkit import Expr, eval_jet2, eval_jet3, substitute

REGULARITY_FLOOR = 1e-10
METRIC_FLOOR = 1e-20
UNIT_SPEED_TOL = 1e-6
CURVATURE_FLOOR = 1e-9

Box = tuple[tuple[float, float], tuple[float, float]]


class GeometryError(Exception):
    """Base class for geometric precondition failures."""


class RegularityError(GeometryError):
    """W = sqrt(EG - F^2) fell below the regularity floor."""


class NotUnitSpeedError(GeometryError):
    def __init__(self, speed: float, s: float):
        super().__init__(f"curve is not unit speed at s={s}: |beta'| = {speed}")
        self.speed = speed


class VanishingCurvatureError(GeometryError):
    """kappa ~ 0: principal normal, binormal and torsion are undefined."""


def violation(ok, *values) -> tuple[float, ...] | None:
    """None when the check ``ok`` holds at every grid point; otherwise
    ``values`` as Python floats at the first point where it fails, for the
    error message (numpy 2 would spell a scalar ``np.float64(0.5)``)."""
    if np.all(ok):
        return None
    i = int(np.argmin(ok))
    return tuple(float(x[i]) if np.ndim(x) else float(x) for x in values)


def require_unit_speed(speed, s) -> None:
    """Raise :class:`NotUnitSpeedError` at the first ``s`` where |beta'| is
    not 1 within :data:`UNIT_SPEED_TOL`."""
    bad = violation(abs(speed - 1.0) <= UNIT_SPEED_TOL, speed, s)
    if bad is not None:
        raise NotUnitSpeedError(*bad)


def _require_in_box(domain: Box, u, v) -> None:
    (u0, u1), (v0, v1) = domain
    eu = 1e-9 * max(1.0, abs(u0), abs(u1))
    ev = 1e-9 * max(1.0, abs(v0), abs(v1))
    inside = (u0 - eu <= u) & (u <= u1 + eu) & (v0 - ev <= v) & (v <= v1 + ev)
    bad = violation(inside, u, v)
    if bad is not None:
        raise GeometryError(f"point ({bad[0]}, {bad[1]}) outside domain box {domain}")


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over axis 0, as :func:`dot`."""
    return np.cross(a, b, axis=0)


def dot(a: np.ndarray, b: np.ndarray):
    """Dot product over axis 0, of 3-vectors or of (3, n) stacks of them.
    Both add the products in the same order, so a point of a grid gets the
    bits it gets alone."""
    p = a * b
    return p[0] + p[1] + p[2]


def norm(a: np.ndarray):
    """Euclidean length over axis 0, as :func:`dot`."""
    return np.sqrt(dot(a, a))


# ---------------------------------------------------------------------------
# Surface descriptions


@dataclass
class PatchJets:
    """Position and partial derivatives of an embedded patch: (3, n) arrays
    over a grid, 3-vectors at a point."""

    p: np.ndarray
    pu: np.ndarray
    pv: np.ndarray
    puu: np.ndarray
    puv: np.ndarray
    pvv: np.ndarray


@dataclass(frozen=True)
class SurfacePatch:
    """Embedded patch Psi(u, v) in E^3 with a rectangular parameter domain."""

    x: Expr
    y: Expr
    z: Expr
    domain: Box

    def jets(self, u, v) -> PatchJets:
        _require_in_box(self.domain, u, v)
        js = [eval_jet2(c, u, v) for c in (self.x, self.y, self.z)]
        pick = lambda attr: np.array([getattr(j, attr) for j in js])
        return PatchJets(pick("value"), pick("du"), pick("dv"),
                         pick("duu"), pick("duv"), pick("dvv"))

    def first_form(self, u: float, v: float) -> "FirstForm":
        return first_fundamental(self, u, v)


@dataclass(frozen=True)
class AbstractMetric:
    """First fundamental form given directly as E, F, G expressions."""

    E: Expr
    F: Expr
    G: Expr
    domain: Box

    def first_form(self, u, v) -> "FirstForm":
        _require_in_box(self.domain, u, v)
        je = eval_jet2(self.E, u, v)
        jf = eval_jet2(self.F, u, v)
        jg = eval_jet2(self.G, u, v)
        with np.errstate(over="ignore", invalid="ignore"):
            disc = je.value * jg.value - jf.value * jf.value
        _require_finite("first fundamental form", u, v, disc,
                        *(getattr(j, d) for j in (je, jf, jg) for d in ("value", "du", "dv")))
        bad = violation((je.value > 0.0) & (jg.value > 0.0), u, v)
        if bad is not None:
            raise RegularityError(f"metric needs E > 0 and G > 0 at ({bad[0]}, {bad[1]})")
        bad = violation(disc > METRIC_FLOOR, u, v, disc)
        if bad is not None:
            raise RegularityError(f"EG - F^2 = {bad[2]} below floor at ({bad[0]}, {bad[1]})")
        return FirstForm(je.value, jf.value, jg.value, np.sqrt(disc),
                         je.du, je.dv, jf.du, jf.dv, jg.du, jg.dv)


# ---------------------------------------------------------------------------
# Value types


@dataclass(frozen=True)
class FirstForm:
    """E, F, G with their first partials and W = sqrt(EG - F^2), each over
    the grid (0-d at a point)."""

    E: float
    F: float
    G: float
    W: float
    E_u: float
    E_v: float
    F_u: float
    F_v: float
    G_u: float
    G_v: float


@dataclass(frozen=True)
class SecondForm:
    """L, M, N against the unit normal Psi_u x Psi_v / W."""

    L: float
    M: float
    N: float
    n_vec: np.ndarray


@dataclass(frozen=True)
class ChristoffelSet:
    """Second-kind symbols; g<i><j><k> holds Gamma^k_ij (g121 = Gamma^1_12)."""

    g111: float
    g112: float
    g121: float
    g122: float
    g221: float
    g222: float


@dataclass(frozen=True)
class CurveJets:
    """Parameter values and s-derivatives of a surface curve, each over the
    s-grid (0-d at a point)."""

    u: float
    v: float
    u1: float
    v1: float
    u2: float
    v2: float


@dataclass(frozen=True)
class ParamCurve:
    """Unit-speed curve (u(s), v(s)) given analytically."""

    u: Expr
    v: Expr

    def jets(self, s) -> CurveJets:
        ju = eval_jet3(self.u, s)
        jv = eval_jet3(self.v, s)
        return CurveJets(ju.value, jv.value, ju.d1, jv.d1, ju.d2, jv.d2)


@dataclass(frozen=True)
class FrameData:
    """Frenet data; n, b, tau are NaN at the points where they are undefined
    (kappa ~ 0); tau is None when not computed (on request, or for a
    reparameterized curve, whose jets stop at order 2)."""

    beta: np.ndarray
    t: np.ndarray
    kappa: float
    n: np.ndarray
    b: np.ndarray
    tau: float | None


# ---------------------------------------------------------------------------
# Operations


def _require_finite(what: str, u, v, *values) -> None:
    # values: grid arrays of one shape
    bad = violation(np.isfinite(values).all(axis=0), u, v)
    if bad is not None:
        raise GeometryError(f"{what} is not finite at ({bad[0]}, {bad[1]})")


def first_fundamental(p: SurfacePatch, u, v, pj: PatchJets | None = None) -> FirstForm:
    """First-form coefficients and their first partials from patch jets
    (``pj``, when the caller already holds them at ``u, v``)."""
    pj = p.jets(u, v) if pj is None else pj
    # products of large finite jets may overflow: checked below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        E = dot(pj.pu, pj.pu)
        F = dot(pj.pu, pj.pv)
        G = dot(pj.pv, pj.pv)
        disc = E * G - F * F
        partials = dict(
            E_u=2.0 * dot(pj.puu, pj.pu),
            E_v=2.0 * dot(pj.puv, pj.pu),
            F_u=dot(pj.puu, pj.pv) + dot(pj.pu, pj.puv),
            F_v=dot(pj.puv, pj.pv) + dot(pj.pu, pj.pvv),
            G_u=2.0 * dot(pj.puv, pj.pv),
            G_v=2.0 * dot(pj.pvv, pj.pv),
        )
    _require_finite("first fundamental form", u, v, E, F, G, disc, *partials.values())
    bad = violation(disc > REGULARITY_FLOOR ** 2, u, v, disc)
    if bad is not None:
        raise RegularityError(f"degenerate patch at ({bad[0]}, {bad[1]}): EG - F^2 = {bad[2]}")
    return FirstForm(E, F, G, np.sqrt(disc), **partials)


def second_fundamental(p: SurfacePatch, u, v, pj: PatchJets | None = None) -> SecondForm:
    """L, M, N and the unit normal, oriented along Psi_u x Psi_v (``pj`` as
    in :func:`first_fundamental`)."""
    pj = p.jets(u, v) if pj is None else pj
    normal = cross(pj.pu, pj.pv)
    w = norm(normal)
    bad = violation(w > REGULARITY_FLOOR, u, v, w)
    if bad is not None:
        raise RegularityError(
            f"degenerate patch at ({bad[0]}, {bad[1]}): |Psi_u x Psi_v| = {bad[2]}")
    n_vec = normal / w
    return SecondForm(dot(pj.puu, n_vec), dot(pj.puv, n_vec), dot(pj.pvv, n_vec), n_vec)


def christoffel(m: FirstForm) -> ChristoffelSet:
    """The six second-kind Christoffel symbols of a 2D metric.

    Closed forms in E, F, G and their first partials; these are the forms
    whose conformal shift is exactly the theta terms of the conformal
    module (see tests on metrics with F != 0).
    """
    if violation(m.W > 0.0) is not None:
        raise RegularityError("Christoffel symbols need W > 0")
    d = 2.0 * m.W * m.W
    return ChristoffelSet(
        g111=(m.G * m.E_u - 2.0 * m.F * m.F_u + m.F * m.E_v) / d,
        g112=(2.0 * m.E * m.F_u - m.E * m.E_v - m.F * m.E_u) / d,
        g121=(m.G * m.E_v - m.F * m.G_u) / d,
        g122=(m.E * m.G_u - m.F * m.E_v) / d,
        g221=(2.0 * m.G * m.F_v - m.G * m.G_u - m.F * m.G_v) / d,
        g222=(m.E * m.G_v - 2.0 * m.F * m.F_v + m.F * m.G_u) / d,
    )


def beltrami_bracket(g: ChristoffelSet, cj: CurveJets):
    """The Beltrami bracket B: Christoffel cubic terms plus u'v'' - u''v'.

    Geodesic curvature of a unit-speed curve is B*W; the bracket itself is
    weight-free and is what the conformal shift identity constrains.
    """
    u1, v1, u2, v2 = cj.u1, cj.v1, cj.u2, cj.v2
    return (
        g.g112 * u1 ** 3
        + (2.0 * g.g122 - g.g111) * u1 * u1 * v1
        + (g.g222 - 2.0 * g.g121) * u1 * v1 * v1
        - g.g221 * v1 ** 3
        + (u1 * v2 - u2 * v1)
    )


def normal_curvature_form(sf: SecondForm, u1, v1):
    """kappa_n = u'^2 L + 2 u'v' M + v'^2 N."""
    return u1 * u1 * sf.L + 2.0 * u1 * v1 * sf.M + v1 * v1 * sf.N


def speed_from_form(m: FirstForm, u1, v1):
    """|beta'| from the first form; 0 where the quadratic form is not positive."""
    q = m.E * u1 * u1 + 2.0 * m.F * u1 * v1 + m.G * v1 * v1
    return np.sqrt(np.maximum(q, 0.0))


def beta_jets(p: SurfacePatch, cj: CurveJets) -> tuple[PatchJets, np.ndarray, np.ndarray]:
    """Patch jets along the curve and the curve's beta', beta'' in E^3."""
    pj = p.jets(cj.u, cj.v)
    beta1 = pj.pu * cj.u1 + pj.pv * cj.v1
    beta2 = (pj.pu * cj.u2 + pj.pv * cj.v2
             + pj.puu * cj.u1 ** 2 + 2.0 * pj.puv * cj.u1 * cj.v1 + pj.pvv * cj.v1 ** 2)
    return pj, beta1, beta2


@lru_cache(maxsize=128)
def _composed_components(p: SurfacePatch, c: ParamCurve) -> tuple[Expr, Expr, Expr]:
    mapping = {"u": c.u, "v": c.v}
    return (substitute(p.x, mapping), substitute(p.y, mapping), substitute(p.z, mapping))


def frenet(p: SurfacePatch, c, s, with_torsion: bool = True) -> FrameData:
    """Frenet data of a unit-speed curve on a patch.

    The torsion reads the third derivative of beta from the patch composed
    with an analytic curve (:class:`ParamCurve`).  It is None for any other
    curve, and with ``with_torsion=False``.
    """
    cj = c.jets(s)
    pj, beta1, beta2 = beta_jets(p, cj)
    require_unit_speed(norm(beta1), s)
    kappa = norm(beta2)
    # NaN propagates through n, b and tau at the points where they are undefined
    k = np.where(kappa <= CURVATURE_FLOOR, np.nan, kappa)
    n = beta2 / k
    b = cross(beta1, n)

    tau = None
    if with_torsion and isinstance(c, ParamCurve):
        beta3 = np.array([eval_jet3(comp, s).d3 for comp in _composed_components(p, c)])
        tau = dot(cross(beta1, beta2), beta3) / (k * k)
    return FrameData(pj.p, beta1, kappa, n, b, tau)


def normal_curvature(p: SurfacePatch, c, s):
    """Signed normal curvature of a unit-speed curve (se1 closed form)."""
    cj = c.jets(s)
    pj, beta1, _ = beta_jets(p, cj)
    require_unit_speed(norm(beta1), s)
    sf = second_fundamental(p, cj.u, cj.v, pj=pj)
    return normal_curvature_form(sf, cj.u1, cj.v1)


def geodesic_curvature(source, c, s, weight: str):
    """Geodesic curvature via the Beltrami formula, B * W or B * W^2.

    Both weight conventions are in circulation, so ``weight`` is mandatory
    ("W1" or "W2") and callers must say which one they mean.  W1 is the
    geometric one (it satisfies kappa^2 = kappa_n^2 + kappa_g^2).
    ``source`` may be an embedded patch or an abstract metric.
    """
    if weight not in ("W1", "W2"):
        raise ValueError(f"weight must be 'W1' or 'W2', got {weight!r}")
    cj = c.jets(s)
    m = source.first_form(cj.u, cj.v)
    require_unit_speed(speed_from_form(m, cj.u1, cj.v1), s)
    bracket = beltrami_bracket(christoffel(m), cj)
    return bracket * (m.W if weight == "W1" else m.W * m.W)


def metric_derivative_identities(p: SurfacePatch, u, v, pj: PatchJets | None = None):
    """Residuals of the six dot-product/metric-derivative identities: a
    6-tuple of floats at one point, an (n, 6) array over a grid.

    Left sides are second-order patch jets (``pj`` as in
    :func:`first_fundamental`) dotted into first-order ones; right sides
    rebuild the same quantities from central differences of E, F, G, which
    read only first-order jets at the four shifted grids, so the two routes
    are independent:

        Psi_uu.Psi_u = E_u/2        Psi_uu.Psi_v = F_u - E_v/2
        Psi_uv.Psi_u = E_v/2        Psi_uv.Psi_v = G_u/2
        Psi_vv.Psi_u = F_v - G_u/2  Psi_vv.Psi_v = G_v/2

    A point is a grid of one, so it gets the bits it gets in a grid.
    """
    pj = p.jets(u, v) if pj is None else pj
    h = 1e-5
    shifted = [p.jets(uu, vv) for uu, vv in ((u + h, v), (u - h, v), (u, v + h), (u, v - h))]
    # products of large finite jets may overflow: checked below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.array([[dot(q.pu, q.pu), dot(q.pu, q.pv), dot(q.pv, q.pv)] for q in shifted])
        E_u, F_u, G_u = (m[0] - m[1]) / (2.0 * h)
        E_v, F_v, G_v = (m[2] - m[3]) / (2.0 * h)
        lhs = [dot(a, b) for a in (pj.puu, pj.puv, pj.pvv) for b in (pj.pu, pj.pv)]
        rhs = [E_u / 2.0, F_u - E_v / 2.0, E_v / 2.0, G_u / 2.0, F_v - G_u / 2.0, G_v / 2.0]
        res = abs(np.column_stack(lhs) - np.column_stack(rhs))
    _require_finite("metric-derivative residual", u, v, *res.T)
    return tuple(res[0].tolist()) if np.ndim(u) == 0 else res
