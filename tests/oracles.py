"""Reference oracles that only the tests read.

Each reaches its value by a route of its own, so that a test can hold a
library result against it: central differences of plain evaluation, the
curvatures of a unit-speed curve from the closed forms, and the normal
component of a synthetic normal-curve position.  The finite differences see
an expression only through ``evaluate``, so they stay independent of the
jet arithmetic they check.
"""

from __future__ import annotations

from confgeo.exprkit import Expr, evaluate
from confgeo.geometry import (
    SurfacePatch,
    beltrami_bracket,
    beta_jets,
    christoffel,
    dot,
    first_fundamental,
    norm,
    normal_curvature_form,
    require_unit_speed,
    second_fundamental,
    speed_from_form,
)
from confgeo.normalcurve import _curved_jets, _synth


def fd_partial(e: Expr, point, index, step: float | None = None) -> float:
    """Central-difference estimate of a partial derivative of order <= 2.

    ``index`` is a multi-index over the expression's declared variables,
    e.g. (1, 0) for d/du and (1, 1) for the mixed partial (four-point cross
    stencil).  Default steps: 1e-5 for first, 1e-4 for second derivatives.
    """
    pt = [float(x) for x in point]
    idx = tuple(int(k) for k in index)
    if len(pt) != len(e.variables) or len(idx) != len(e.variables):
        raise ValueError(f"point/index must match variables {e.variables}")
    order = sum(idx)
    if order == 0:
        return evaluate(e, *pt)
    if order > 2 or min(idx) < 0:
        raise ValueError(f"unsupported multi-index {idx}")
    h = float(step) if step is not None else (1e-5 if order == 1 else 1e-4)
    if h <= 0.0:
        raise ValueError("step must be positive")

    def at(*shifts: float) -> float:
        return evaluate(e, *(x + dx for x, dx in zip(pt, shifts)))

    def unit(i: int, scale: float) -> list[float]:
        out = [0.0] * len(pt)
        out[i] = scale
        return out

    if order == 1:
        i = idx.index(1)
        return (at(*unit(i, h)) - at(*unit(i, -h))) / (2.0 * h)
    if 2 in idx:
        i = idx.index(2)
        return (at(*unit(i, h)) - 2.0 * at(*([0.0] * len(pt))) + at(*unit(i, -h))) / (h * h)
    i, j = (k for k, c in enumerate(idx) if c == 1)

    def cross(si: float, sj: float) -> float:
        shifts = [0.0] * len(pt)
        shifts[i], shifts[j] = si, sj
        return at(*shifts)

    return (cross(h, h) - cross(h, -h) - cross(-h, h) + cross(-h, -h)) / (4.0 * h * h)


def normal_curvature(p: SurfacePatch, c, s):
    """Signed normal curvature of a unit-speed curve (se1 closed form)."""
    cj = c.jets(s)
    pj, beta1, _ = beta_jets(p, cj)
    require_unit_speed(norm(beta1), s)
    sf = second_fundamental(pj, cj.u, cj.v)
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


def normal_component_identity_residual(p: SurfacePatch, c, nu: Expr, eta: Expr, s):
    """|beta.N - closed form| for the surface-normal component of a
    synthetic normal-curve position.

    The closed form is (nu/kappa) kappa_n + (eta/kappa) W B with B the full
    Beltrami bracket: against the unit normal the eta part carries a single
    W (the W^2 variant belongs to the unnormalized normal Psi_u x Psi_v).
    """
    cj, pj, kappa = _curved_jets(p, c, s)
    nval, eval_ = evaluate((nu, eta), s)
    sf = second_fundamental(pj, cj.u, cj.v)
    m = first_fundamental(pj, cj.u, cj.v)
    kn = normal_curvature_form(sf, cj.u1, cj.v1)
    bracket = beltrami_bracket(christoffel(m), cj)
    closed = (nval / kappa) * kn + (eval_ / kappa) * m.W * bracket
    return abs(dot(_synth(pj, cj, nval, eval_, kappa), sf.n_vec) - closed)
