"""Fundamental forms, Christoffel symbols, Frenet frames and curvatures.

Surfaces come in two flavours: an embedded patch (three coordinate
expressions over ``u, v``) or a bare metric (``E, F, G`` expressions).
Everything downstream of the first fundamental form is intrinsic and uses
one shared code path for both.

Orientation convention: the unit surface normal is ``Psi_u x Psi_v / W``
everywhere; every signed quantity (second-form coefficients, normal
curvature) inherits it.

Patch jets take ``u, v`` as arrays (a grid of points, evaluated at once),
and the fundamental forms read the jets their caller holds; curve jets and
Frenet data take ``s`` the same way.  There is one numpy path: a point is
a grid of one, given as floats, whose values come out 0-d.  Vectors are
``(3, n)`` arrays (``(3,)`` at a point), and every check that fails names
the first offending grid point.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exprkit import Expr, derived, eval_jet2, eval_jet3, grid_arrays, substitute

REGULARITY_FLOOR = 1e-10
UNIT_SPEED_TOL = 1e-6
CURVATURE_FLOOR = 1e-9

Box = tuple[tuple[float, float], tuple[float, float]]


class GeometryError(Exception):
    """Geometric precondition failure: a degenerate form or patch, a curve
    not of unit speed, a vanishing curvature, a point outside the box."""


def violation(ok, *values) -> tuple[float, ...] | None:
    """None when the check ``ok`` holds at every grid point; otherwise
    ``values`` as Python floats at the first point where it fails, for the
    error message (numpy 2 would spell a scalar ``np.float64(0.5)``)."""
    if np.count_nonzero(ok) == np.size(ok):
        return None
    i = int(np.argmin(ok))
    return tuple(float(np.ravel(x)[i]) for x in values)


def require_unit_speed(speed, s) -> None:
    """Raise :class:`GeometryError` at the first ``s`` where |beta'| is
    not 1 within :data:`UNIT_SPEED_TOL`."""
    bad = violation(abs(speed - 1.0) <= UNIT_SPEED_TOL, speed, s)
    if bad is not None:
        raise GeometryError(f"curve is not unit speed at s={bad[1]}: |beta'| = {bad[0]}")


def _require_in_box(domain: Box, u, v) -> None:
    u, v = grid_arrays("eval_jet2", (u, v))
    (u0, u1), (v0, v1) = domain
    eu = 1e-9 * max(1.0, abs(u0), abs(u1))
    ev = 1e-9 * max(1.0, abs(v0), abs(v1))
    inside = (u0 - eu <= u) & (u <= u1 + eu) & (v0 - ev <= v) & (v <= v1 + ev)
    bad = violation(inside, u, v)
    if bad is not None:
        raise GeometryError(f"point ({bad[0]}, {bad[1]}) outside domain box {domain}")


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over axis 0, as :func:`dot`: the bits of
    ``np.cross(a, b, axis=0)``, from the same products, without its axis
    handling."""
    return np.array([a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


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


class PatchJets(NamedTuple):
    """Position and partial derivatives of an embedded patch: (3, n) arrays
    over a grid, 3-vectors at a point.  The second partials are None in
    jets of order 1."""

    p: np.ndarray
    pu: np.ndarray
    pv: np.ndarray
    puu: np.ndarray | None = None
    puv: np.ndarray | None = None
    pvv: np.ndarray | None = None


class SurfacePatch(NamedTuple):
    """Embedded patch Psi(u, v) in E^3 with a rectangular parameter domain."""

    x: Expr
    y: Expr
    z: Expr
    domain: Box

    @derived
    def jets(self, u, v, order: int) -> PatchJets:
        """Position and partials to ``order`` (1 or 2)."""
        _require_in_box(self.domain, u, v)
        js = eval_jet2((self.x, self.y, self.z), u, v, order)
        return PatchJets(*(np.array(k) for k in zip(*js) if k[0] is not None))

    def first_form(self, u, v, order: int = 2) -> "FirstForm":
        """The first form from patch jets of ``order``: at order 1 without
        its partials."""
        return first_fundamental(self.jets(u, v, order), u, v)


class AbstractMetric(NamedTuple):
    """First fundamental form given directly as E, F, G expressions."""

    E: Expr
    F: Expr
    G: Expr
    domain: Box

    @derived
    def first_form(self, u, v) -> "FirstForm":
        _require_in_box(self.domain, u, v)
        je, jf, jg = eval_jet2((self.E, self.F, self.G), u, v, 1)
        return _first_form(u, v, je.value, jf.value, jg.value, E_u=je.du, E_v=je.dv,
                           F_u=jf.du, F_v=jf.dv, G_u=jg.du, G_v=jg.dv)


# ---------------------------------------------------------------------------
# Value types


class FirstForm(NamedTuple):
    """E, F, G with their first partials and W = sqrt(EG - F^2), each over
    the grid (0-d at a point).  The partials are None in a form built from
    patch jets of order 1."""

    E: float
    F: float
    G: float
    W: float
    E_u: float | None = None
    E_v: float | None = None
    F_u: float | None = None
    F_v: float | None = None
    G_u: float | None = None
    G_v: float | None = None


class SecondForm(NamedTuple):
    """L, M, N against the unit normal Psi_u x Psi_v / W."""

    L: float
    M: float
    N: float
    n_vec: np.ndarray


class ChristoffelSet(NamedTuple):
    """Six symbols in the slot order :func:`bracket_cubic` reads; g<i><j><k>
    holds Gamma^k_ij (g121 = Gamma^1_12), or theta^k_ij from ``conformal.theta_terms``."""

    g111: float
    g112: float
    g121: float
    g122: float
    g221: float
    g222: float


class CurveJets(NamedTuple):
    """Parameter values and s-derivatives of a surface curve, each over the
    s-grid (0-d at a point)."""

    u: float
    v: float
    u1: float
    v1: float
    u2: float
    v2: float


class ParamCurve(NamedTuple):
    """Unit-speed curve (u(s), v(s)) given analytically."""

    u: Expr
    v: Expr

    @derived
    def jets(self, s) -> CurveJets:
        ju, jv = eval_jet3((self.u, self.v), s, 2)
        return CurveJets(ju.value, jv.value, ju.d1, jv.d1, ju.d2, jv.d2)


class FrameData(NamedTuple):
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


def _first_form(u, v, E, F, G, **partials) -> FirstForm:
    """The checked first form of a patch or of a metric: every value is
    finite, E > 0 and EG - F^2 > REGULARITY_FLOOR^2, which together give
    G > 0.  On a patch EG - F^2 = W^2, so the floor is the one
    :func:`second_fundamental` puts on W."""
    # products of large finite values may overflow: checked here, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        disc = E * G - F * F
    _require_finite("first fundamental form", u, v, E, F, G, disc, *partials.values())
    bad = violation((E > 0.0) & (disc > REGULARITY_FLOOR ** 2), u, v, E, disc)
    if bad is not None:
        raise GeometryError(f"degenerate first form at ({bad[0]}, {bad[1]}): "
                            f"E = {bad[2]}, EG - F^2 = {bad[3]}")
    return FirstForm(E, F, G, np.sqrt(disc), **partials)


@derived
def first_fundamental(pj: PatchJets, u, v) -> FirstForm:
    """First-form coefficients and their first partials from the patch
    jets ``pj`` at ``u, v``; from jets of order 1, the coefficients alone.
    ``u, v`` only name the first point where a check fails."""
    # products of large finite jets may overflow: checked in _first_form
    with np.errstate(over="ignore", invalid="ignore"):
        partials = {} if pj.puu is None else dict(
            E_u=2.0 * dot(pj.puu, pj.pu),
            E_v=2.0 * dot(pj.puv, pj.pu),
            F_u=dot(pj.puu, pj.pv) + dot(pj.pu, pj.puv),
            F_v=dot(pj.puv, pj.pv) + dot(pj.pu, pj.pvv),
            G_u=2.0 * dot(pj.puv, pj.pv),
            G_v=2.0 * dot(pj.pvv, pj.pv),
        )
        return _first_form(u, v, dot(pj.pu, pj.pu), dot(pj.pu, pj.pv), dot(pj.pv, pj.pv),
                           **partials)


@derived
def second_fundamental(pj: PatchJets, u, v) -> SecondForm:
    """L, M, N and the unit normal, oriented along Psi_u x Psi_v, from the
    order-2 patch jets ``pj`` at ``u, v`` (as in :func:`first_fundamental`)."""
    normal = cross(pj.pu, pj.pv)
    w = norm(normal)
    bad = violation(w > REGULARITY_FLOOR, u, v, w)
    if bad is not None:
        raise GeometryError(
            f"degenerate patch at ({bad[0]}, {bad[1]}): |Psi_u x Psi_v| = {bad[2]}")
    n_vec = normal / w
    return SecondForm(dot(pj.puu, n_vec), dot(pj.puv, n_vec), dot(pj.pvv, n_vec), n_vec)


@derived
def christoffel(m: FirstForm) -> ChristoffelSet:
    """The six second-kind Christoffel symbols of a 2D metric.

    Closed forms in E, F, G and their first partials; these are the forms
    whose conformal shift is exactly the theta terms of the conformal
    module (see tests on metrics with F != 0).  ``m`` has W > 0: every
    first form is built by :func:`_first_form`.
    """
    d = 2.0 * m.W * m.W
    return ChristoffelSet(
        g111=(m.G * m.E_u - 2.0 * m.F * m.F_u + m.F * m.E_v) / d,
        g112=(2.0 * m.E * m.F_u - m.E * m.E_v - m.F * m.E_u) / d,
        g121=(m.G * m.E_v - m.F * m.G_u) / d,
        g122=(m.E * m.G_u - m.F * m.E_v) / d,
        g221=(2.0 * m.G * m.F_v - m.G * m.G_u - m.F * m.G_v) / d,
        g222=(m.E * m.G_v - 2.0 * m.F * m.F_v + m.F * m.G_u) / d,
    )


def bracket_cubic(sym, u1, v1):
    """The cubic in (u', v') through which a :class:`ChristoffelSet` enters
    a Beltrami bracket: Gamma's for B, and theta's for its conformal shift."""
    s111, s112, s121, s122, s221, s222 = sym
    return (s112 * u1 ** 3
            + (2.0 * s122 - s111) * u1 * u1 * v1
            + (s222 - 2.0 * s121) * u1 * v1 * v1
            - s221 * v1 ** 3)


def beltrami_bracket(g: ChristoffelSet, cj: CurveJets):
    """The Beltrami bracket B: Christoffel cubic terms plus u'v'' - u''v'.

    Geodesic curvature of a unit-speed curve is B*W; the bracket itself is
    weight-free and is what the conformal shift identity constrains.
    """
    return bracket_cubic(g, cj.u1, cj.v1) + (cj.u1 * cj.v2 - cj.u2 * cj.v1)


def normal_curvature_form(sf: SecondForm, u1, v1):
    """kappa_n = u'^2 L + 2 u'v' M + v'^2 N."""
    return u1 * u1 * sf.L + 2.0 * u1 * v1 * sf.M + v1 * v1 * sf.N


def speed_from_form(m: FirstForm, u1, v1):
    """|beta'| from the first form; 0 where the quadratic form is not positive."""
    q = m.E * u1 * u1 + 2.0 * m.F * u1 * v1 + m.G * v1 * v1
    return np.sqrt(np.maximum(q, 0.0))


def beta_jets(p: SurfacePatch, cj: CurveJets) -> tuple[PatchJets, np.ndarray, np.ndarray]:
    """Patch jets along the curve and the curve's beta', beta'' in E^3."""
    pj = p.jets(cj.u, cj.v, 2)
    beta1 = pj.pu * cj.u1 + pj.pv * cj.v1
    beta2 = (pj.pu * cj.u2 + pj.pv * cj.v2
             + pj.puu * cj.u1 ** 2 + 2.0 * pj.puv * cj.u1 * cj.v1 + pj.pvv * cj.v1 ** 2)
    return pj, beta1, beta2


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
        composed = tuple(substitute(x, {"u": c.u, "v": c.v}) for x in (p.x, p.y, p.z))
        beta3 = np.array([j.d3 for j in eval_jet3(composed, s)])
        tau = dot(cross(beta1, beta2), beta3) / (k * k)
    return FrameData(pj.p, beta1, kappa, n, b, tau)


def metric_derivative_identities(p: SurfacePatch, u, v, pj: PatchJets):
    """Residuals of the six dot-product/metric-derivative identities: one
    row of six per point, in the one shape of ``u, v`` plus an axis of 6.

    Left sides are the second partials of the patch jets ``pj`` at ``u, v``
    dotted into their first partials; right sides rebuild the same
    quantities from central differences of E, F, G, which read only
    first-order jets at the shifted points, so the two routes are
    independent:

        Psi_uu.Psi_u = E_u/2        Psi_uu.Psi_v = F_u - E_v/2
        Psi_uv.Psi_u = E_v/2        Psi_uv.Psi_v = G_u/2
        Psi_vv.Psi_u = F_v - G_u/2  Psi_vv.Psi_v = G_v/2

    The shifted grids (u+h, v), (u-h, v), (u, v+h), (u, v-h) are one walk,
    in that order, so each point and the first failing one are as in four
    walks.  A point is a grid of one, so it gets the bits it gets in a grid.
    """
    h = 1e-5
    if np.shape(u) != np.shape(v):
        raise GeometryError(f"identities need u, v of one shape, got {np.shape(u)}, {np.shape(v)}")
    su, sv = np.ravel(u), np.ravel(v)
    q = p.jets(np.concatenate([su + h, su - h, su, su]),
               np.concatenate([sv, sv, sv + h, sv - h]), 1)
    # products of large finite jets may overflow: checked below, not warned
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.array([dot(q.pu, q.pu), dot(q.pu, q.pv), dot(q.pv, q.pv)]).reshape(3, 4, -1)
        del q  # four grids' jets, freed before the left sides: a lower peak RSS
        E_u, F_u, G_u = (m[:, 0] - m[:, 1]) / (2.0 * h)
        E_v, F_v, G_v = (m[:, 2] - m[:, 3]) / (2.0 * h)
        lhs = [np.ravel(dot(a, b)) for a in (pj.puu, pj.puv, pj.pvv) for b in (pj.pu, pj.pv)]
        rhs = [E_u / 2.0, F_u - E_v / 2.0, E_v / 2.0, G_u / 2.0, F_v - G_u / 2.0, G_v / 2.0]
        res = abs(np.column_stack(lhs) - np.column_stack(rhs))
    _require_finite("metric-derivative residual", su, sv, *res.T)
    return res.reshape(np.shape(u) + (6,))
