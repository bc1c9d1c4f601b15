"""Finite-difference oracle and numerical arc-length reparameterization.

The finite differences here are deliberately independent of the jet
evaluator: they see expressions only through plain evaluation, which is
what makes them usable as an anti-drift check on the jets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exprkit import Expr, eval_jet3, evaluate
from .geometry import CurveJets, SurfacePatch, speed_from_form, violation

QUAD_TOL = 1e-10
ZERO_SPEED_FLOOR = 1e-12
REPARAM_TOL = 1e-6
NEWTON_STEPS = 40
REFINE_ROUNDS = 10


# The 6-point Gauss-Legendre rule on [-1, 1], as leggauss(6) of
# numpy.polynomial.legendre gives it.  It measures the length from a knot to
# t within one knot panel.  Written out: importing numpy.polynomial, or any
# first LAPACK call that would compute it, adds about 1 MB to every run.
GAUSS_X = np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                    0.2386191860831969, 0.6612093864662645, 0.9324695142031519])
GAUSS_W = np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                    0.46791393457269104, 0.3607615730481387, 0.17132449237917027])


class CalculusError(Exception):
    pass


class ZeroSpeedError(CalculusError):
    """The speed |dbeta/dt| dropped below the quadrature floor."""


class NonMonotoneLengthError(CalculusError):
    """Cumulative arc length failed to increase (numerical failure)."""


# ---------------------------------------------------------------------------
# Finite differences


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


# ---------------------------------------------------------------------------
# Quadrature


def adaptive_simpson(f, a, b, tol: float = QUAD_TOL) -> np.ndarray:
    """Adaptive Simpson quadrature of ``f`` over the intervals [a, b] (arrays
    broadcast to one shape), with absolute per-panel tolerance.

    The panels are refined level by level: each depth evaluates ``f`` once,
    on an array of the quarter points of every panel still open.  A panel
    closes when its two halves agree with it, |S2 - S1| <= 15 tol, with tol
    halved per depth and at most 50 depths; the closed panels are then
    summed pairwise up the tree of splits, as a recursion would add them.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    shape = a.shape
    a, b = a.ravel(), b.ravel()
    fa, fm, fb = np.split(f(np.concatenate([a, 0.5 * (a + b), b])), 3)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    levels = []  # per depth: the sum of each closed panel, and which are split
    for depth in range(50, -1, -1):
        m = 0.5 * (a + b)
        flm, frm = np.split(f(np.concatenate([0.5 * (a + m), 0.5 * (m + b)])), 2)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        gap = left + right - whole
        split = (np.abs(gap) > 15.0 * tol) & (depth > 0)
        levels.append((left + right + gap / 15.0, split))
        if not split.any():
            break
        # the two halves of each split panel, side by side
        halves = [np.column_stack([x[split], y[split]]).ravel() for x, y in
                  ((a, m), (m, b), (fa, fm), (flm, frm), (fm, fb), (left, right))]
        a, b, fa, fm, fb, whole = halves
        tol *= 0.5
    total = levels.pop()[0]
    for sums, split in reversed(levels):
        sums[split] = total[0::2] + total[1::2]
        total = sums
    return total.reshape(shape)


# ---------------------------------------------------------------------------
# Arc-length reparameterization


def _curve_speed(patch: SurfacePatch, u_raw: Expr, v_raw: Expr, t):
    ju, jv = eval_jet3(u_raw, t), eval_jet3(v_raw, t)
    w = speed_from_form(patch.first_form(ju.value, jv.value), ju.d1, jv.d1)
    bad = violation(w >= ZERO_SPEED_FLOOR, t)
    if bad is not None:
        raise ZeroSpeedError(f"zero-speed point at t={bad[0]}")
    return w


def _gauss_lengths(patch: SurfacePatch, u_raw: Expr, v_raw: Expr,
                   a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lengths of the t-intervals [a, b] by the Gauss-Legendre rule, and the
    speed at each b, from one array speed call."""
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * GAUSS_X
    speed = _curve_speed(patch, u_raw, v_raw, np.concatenate([nodes.ravel(), b]))
    n = b.size
    return half * (speed[:-n].reshape(n, -1) * GAUSS_W).sum(axis=1), speed[-n:]


@dataclass(eq=False)
class UnitSpeedCurve:
    """Arc-length reparameterization of a raw-parameter curve on a patch.

    Carries the (s_i, t_i) knot table.  Jets are produced on demand:
    Newton solves cumulative-length(t) = s from the linear seed in the knot
    panel, taking the length from the knot s_i to t by the
    fixed-order Gauss-Legendre rule that built the table, and exact
    raw-curve jets are pushed through the inverse chain rule.  The
    unit-speed invariant therefore holds to quadrature accuracy, well
    inside the 1e-6 reparameterization tolerance.  ``s`` is an s-grid, all
    points solved at once (a float is a grid of one).  Jets stop at order
    2, so :func:`geometry.frenet` gives no torsion here.
    """

    patch: SurfacePatch
    u_raw: Expr
    v_raw: Expr
    t0: float
    t1: float
    length: float
    s_samples: np.ndarray
    t_samples: np.ndarray

    def invert(self, s):
        """Solve cumulative-length(t) = s by Newton, on all points at once."""
        ss = np.atleast_1d(np.asarray(s, dtype=np.float64))
        inside = (-1e-9 <= ss) & (ss <= self.length * (1.0 + 1e-9) + 1e-9)
        bad = violation(inside, ss)
        if bad is not None:
            raise CalculusError(f"s={bad[0]} outside [0, {self.length}]")
        ss = np.clip(ss, 0.0, self.length)
        i = np.clip(np.searchsorted(self.s_samples, ss, side="right") - 1,
                    0, len(self.s_samples) - 2)
        s_knot, t_knot = self.s_samples[i], self.t_samples[i]
        slope = (self.t_samples[i + 1] - t_knot) / (self.s_samples[i + 1] - s_knot)
        t = np.clip(t_knot + (ss - s_knot) * slope, self.t0, self.t1)
        tol = 1e-13 * max(1.0, self.length)
        todo = np.arange(ss.size)  # points not yet converged
        for step in range(NEWTON_STEPS + 1):
            length, speed = _gauss_lengths(self.patch, self.u_raw, self.v_raw,
                                           t_knot[todo], t[todo])
            g = s_knot[todo] + length - ss[todo]
            keep = np.abs(g) > tol
            if not keep.any():
                break
            if step == NEWTON_STEPS:
                raise CalculusError(
                    f"arc-length inverse did not converge at s={float(ss[todo[keep][0]])} "
                    f"after {NEWTON_STEPS} Newton steps")
            todo = todo[keep]
            t[todo] = np.clip(t[todo] - g[keep] / speed[keep], self.t0, self.t1)
        return t.reshape(np.shape(s))

    # -- curve protocol --------------------------------------------------------

    def jets(self, s) -> CurveJets:
        t = self.invert(s)
        ju, jv = eval_jet3(self.u_raw, t), eval_jet3(self.v_raw, t)
        m = self.patch.first_form(ju.value, jv.value)
        u1, v1, u2, v2 = ju.d1, jv.d1, ju.d2, jv.d2
        q = m.E * u1 * u1 + 2.0 * m.F * u1 * v1 + m.G * v1 * v1
        w = np.sqrt(q)
        dq = ((m.E_u * u1 + m.E_v * v1) * u1 * u1 + 2.0 * m.E * u1 * u2
              + 2.0 * (m.F_u * u1 + m.F_v * v1) * u1 * v1 + 2.0 * m.F * (u2 * v1 + u1 * v2)
              + (m.G_u * u1 + m.G_v * v1) * v1 * v1 + 2.0 * m.G * v1 * v2)
        wp = dq / (2.0 * w)
        ts = 1.0 / w
        tss = -wp / (w * w * w)
        return CurveJets(
            ju.value, jv.value,
            u1 * ts, v1 * ts,
            u2 * ts * ts + u1 * tss,
            v2 * ts * ts + v1 * tss,
        )


def reparameterize_arclength(patch: SurfacePatch, curve: tuple[Expr, Expr],
                             t0: float, t1: float, n: int) -> UnitSpeedCurve:
    """Reparameterize a raw-parameter curve (u(t), v(t)) by arc length.

    Cumulative length of |dbeta/dt| over ``n`` uniform t-panels, by the
    fixed-order rule of the inverse, so that the table and the inverse
    agree at every knot.  Adaptive Simpson quadrature (absolute tolerance
    1e-10 per panel) checks each panel; one where the two differ by more
    than that tolerance is split in two, until none does.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    if n < 16:
        raise ValueError("need n >= 16 samples")
    u_raw, v_raw = curve
    t_samples = np.linspace(t0, t1, n + 1)
    for _ in range(REFINE_ROUNDS):
        a, b = t_samples[:-1], t_samples[1:]
        increments = _gauss_lengths(patch, u_raw, v_raw, a, b)[0]
        simpson = adaptive_simpson(lambda t: _curve_speed(patch, u_raw, v_raw, t), a, b)
        missed = np.abs(increments - simpson) > QUAD_TOL
        if not missed.any():
            break
        t_samples = np.sort(np.concatenate([t_samples, 0.5 * (a + b)[missed]]))
    else:
        at = float(a[np.argmax(missed)])
        raise CalculusError(f"arc length unresolved near t={at} after {REFINE_ROUNDS} "
                            f"panel splits (is the speed nearly zero there?)")
    s_samples = np.concatenate([[0.0], np.cumsum(increments)])
    if np.any(np.diff(s_samples) <= 0.0):
        raise NonMonotoneLengthError("cumulative arc length is not strictly increasing")
    return UnitSpeedCurve(patch, u_raw, v_raw, t0, t1, float(s_samples[-1]), s_samples,
                          t_samples)
