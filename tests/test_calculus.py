import dataclasses
import functools
import math

import numpy as np
import pytest

from confgeo import cli
from confgeo.calculus import (
    CalculusError,
    ZeroSpeedError,
    _curve_speed,
    GAUSS_W,
    GAUSS_X,
    adaptive_simpson,
    fd_partial,
    reparameterize_arclength,
)
from confgeo.exprkit import EvalDomainError, eval_jet2, parse_scalar_field
from conftest import catenoid, plane, stereographic_target

UV = ("u", "v")


def _t(text):
    return parse_scalar_field(text, ("t",))


# -- fd_partial -------------------------------------------------------------


def test_fd_first_partial_polynomial():
    e = parse_scalar_field("u^2*v", UV)
    assert fd_partial(e, (2.0, 3.0), (1, 0), step=1e-5) == pytest.approx(12.0, abs=1e-6)


def test_fd_mixed_partial_polynomial():
    e = parse_scalar_field("u^2*v", UV)
    assert fd_partial(e, (2.0, 3.0), (1, 1), step=1e-4) == pytest.approx(4.0, abs=1e-5)


def test_fd_second_partial_odd_function():
    e = parse_scalar_field("sin(u)", ("u",))
    assert fd_partial(e, (0.0,), (2,), step=1e-4) == pytest.approx(0.0, abs=1e-6)


def test_fd_rejects_bad_index():
    e = parse_scalar_field("u*v", UV)
    with pytest.raises(ValueError):
        fd_partial(e, (0.0, 0.0), (2, 1))
    with pytest.raises(ValueError):
        fd_partial(e, (0.0,), (1, 0))
    with pytest.raises(ValueError):
        fd_partial(e, (0.0, 0.0), (1, 0), step=-1.0)


def test_fd_stencil_leaving_domain():
    e = parse_scalar_field("log(u)", ("u",))
    with pytest.raises(EvalDomainError):
        fd_partial(e, (1e-6,), (1,), step=1e-5)


def test_fd_agrees_with_jets_on_smooth_expressions():
    # 50 random smooth expressions at 10 points each, all six slots, rel 1e-5
    rng = np.random.default_rng(42)
    templates = [
        "{a}*u^2*v + {b}*v^3",
        "sin({a}*u + {b}*v)",
        "cos(u)*exp({a}*v)",
        "tanh({a}*u*v) + {b}*u",
        "exp({a}*u) * sin({b}*v)",
    ]
    slots = [((1, 0), "du"), ((0, 1), "dv"), ((2, 0), "duu"),
             ((1, 1), "duv"), ((0, 2), "dvv"), ((0, 0), "value")]
    for k in range(50):
        text = templates[k % len(templates)].format(
            a=repr(round(rng.uniform(-1.5, 1.5), 4)),
            b=repr(round(rng.uniform(-1.5, 1.5), 4)))
        e = parse_scalar_field(text, UV)
        for _ in range(10):
            u, v = rng.uniform(-1.2, 1.2, 2)
            j = eval_jet2(e, u, v)
            for idx, attr in slots:
                ref = fd_partial(e, (u, v), idx)
                got = getattr(j, attr)
                assert abs(ref - got) / max(1.0, abs(got)) < 1e-5


# -- quadrature ---------------------------------------------------------------


def test_gauss_rule_is_numpys():
    x, w = np.polynomial.legendre.leggauss(len(GAUSS_X))
    assert GAUSS_X.tolist() == x.tolist()
    assert GAUSS_W.tolist() == w.tolist()


def test_adaptive_simpson_known_integrals():
    assert adaptive_simpson(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)
    assert adaptive_simpson(lambda t: t * t, 0.0, 3.0) == pytest.approx(9.0, abs=1e-12)


# -- reparameterization --------------------------------------------------------


def test_reparam_already_unit_speed():
    c = reparameterize_arclength(plane(), (_t("t"), _t("0")), 0.0, 1.0, 16)
    assert c.length == pytest.approx(1.0, abs=1e-10)
    for s in np.linspace(0.05, 0.95, 7):
        assert c.invert(float(s)) == pytest.approx(s, abs=1e-9)


def test_reparam_constant_speed_two():
    c = reparameterize_arclength(plane(), (_t("2*t"), _t("0")), 0.0, 1.0, 16)
    assert c.length == pytest.approx(2.0, abs=1e-10)
    for s in np.linspace(0.1, 1.9, 7):
        assert c.invert(float(s)) == pytest.approx(s / 2.0, abs=1e-9)
        cj = c.jets(float(s))
        assert math.hypot(cj.u1, cj.v1) == pytest.approx(1.0, abs=1e-6)


def test_reparam_quadratic_against_closed_form():
    # speed 2t on [1, 2]: length = t^2 - 1 evaluated at 2, i.e. 3; t(s) = sqrt(1+s)
    c = reparameterize_arclength(plane(), (_t("t^2"), _t("0")), 1.0, 2.0, 16)
    assert c.length == pytest.approx(3.0, abs=1e-9)
    for s in np.linspace(0.2, 2.8, 10):
        assert c.invert(float(s)) == pytest.approx(math.sqrt(1.0 + s), abs=1e-9)
        cj = c.jets(float(s))
        assert abs(math.hypot(cj.u1, cj.v1) - 1.0) < 1e-6


def test_reparam_unit_speed_invariant_on_patch():
    # curved patch: composing the table jets with the patch metric gives |beta'| = 1
    cat = catenoid()
    c = reparameterize_arclength(cat, (_t("t"), _t("0.2+0.3*t")), 0.2, 1.0, 24)
    for s in np.linspace(0.0, c.length, 9):
        cj = c.jets(float(s))
        m = cat.first_form(cj.u, cj.v)
        speed2 = m.E * cj.u1 ** 2 + 2 * m.F * cj.u1 * cj.v1 + m.G * cj.v1 ** 2
        assert abs(math.sqrt(speed2) - 1.0) < 1e-6


def test_reparam_grid_inverse_equals_point_inverse():
    c = reparameterize_arclength(catenoid(), (_t("t"), _t("0.2+0.3*t")), 0.2, 1.0, 24)
    ss = np.linspace(0.0, c.length, 41)
    ts = c.invert(ss)
    assert ts.tolist() == [c.invert(s) for s in ss.tolist()]
    grid, point = c.jets(ss), c.jets(float(ss[7]))
    for name in ("u", "v", "u1", "v1", "u2", "v2"):
        assert getattr(grid, name)[7] == getattr(point, name)


def test_reparam_invert_reports_non_convergence():
    # a table that claims twice the true length pins Newton at t1 near its end
    c = reparameterize_arclength(plane(), (_t("t"), _t("0")), 0.0, 1.0, 16)
    inflated = dataclasses.replace(c, length=2.0 * c.length, s_samples=2.0 * c.s_samples)
    # from the knot at s = 0.5, t = 0.25 the length grows at speed 1
    assert inflated.invert(0.6) == pytest.approx(0.35, abs=1e-12)
    for s in (1.95, np.array([0.6, 1.95, 1.97])):
        with pytest.raises(CalculusError, match=r"did not converge at s=1\.95 ") as err:
            inflated.invert(s)
        assert isinstance(err.value, cli.MATH_ERRORS)  # exit 3


def test_reparam_refines_panels_the_inverse_rule_misses():
    # a fast-turning curve: 16 uniform panels are too coarse for the
    # fixed-order rule of the inverse, so some are split
    target = stereographic_target()
    raw = (_t("0.9*cos(3*t)"), _t("0.9*sin(5*t)"))
    c = reparameterize_arclength(target, raw, 0.0, 1.0, 16)
    assert len(c.s_samples) > 17
    ss = np.array([0.3, 0.5, 0.8]) * c.length
    speed = functools.partial(_curve_speed, target, *raw)
    reached = adaptive_simpson(speed, 0.0, c.invert(ss))
    assert np.max(np.abs(reached - ss)) < 1e-9


# adaptive_simpson over the 16 uniform panels of [1, 2] of the near-cusp speed
# below, as the recursive form (one scalar speed call per point) summed them
NEAR_CUSP_PANEL_SUMS = [
    0.32968918500917427, 0.29576942354879604, 0.24768870209967356, 0.19691343044414328,
    0.15015464574532345, 0.10958713101437473, 0.07482727467885525, 0.04446833639909045,
    0.016837168910911745, 0.01021166844266151, 0.03693649849760888, 0.06640585030493511,
    0.09984096418776395, 0.1387667630677731, 0.18395315439928328, 0.23409868566987918,
]


def test_adaptive_simpson_refines_level_by_level_as_the_recursion_did():
    raw = (_t("0.9*cos(2*t)"), _t("0.9*sin(3*t)"))
    speed = functools.partial(_curve_speed, stereographic_target(), *raw)
    sizes = []

    def counted(t):
        sizes.append(t.size)
        return speed(t)

    knots = np.linspace(1.0, 2.0, 17)
    got = adaptive_simpson(counted, knots[:-1], knots[1:])
    want = np.array(NEAR_CUSP_PANEL_SUMS)
    assert np.max(np.abs(got - want) / want) <= 1e-15
    # one array call for the panel ends and midpoints, then one per depth;
    # the panel holding the cusp at t = pi/2 is split many times over
    assert sizes[0] == 48 and len(sizes) == 17


def test_reparam_near_cusp_is_a_calculus_error():
    # u' and v' both vanish at t = pi/2, between two knots
    raw = (_t("0.9*cos(2*t)"), _t("0.9*sin(3*t)"))
    with pytest.raises(CalculusError, match=r"unresolved near t=1\.57"):
        reparameterize_arclength(stereographic_target(), raw, 1.0, 2.0, 16)


def test_reparam_sample_table_shape():
    c = reparameterize_arclength(plane(), (_t("t^2"), _t("0")), 1.0, 2.0, 16)
    assert len(c.s_samples) == 17
    assert c.s_samples[0] == 0.0
    assert np.all(np.diff(c.s_samples) > 0)


def test_reparam_zero_speed_detected():
    with pytest.raises(ZeroSpeedError):
        reparameterize_arclength(plane(), (_t("t^2"), _t("0")), -1.0, 1.0, 16)


def test_reparam_argument_validation():
    with pytest.raises(ValueError, match="t1 > t0"):
        reparameterize_arclength(plane(), (_t("t"), _t("0")), 1.0, 1.0, 16)
    with pytest.raises(ValueError, match="n >= 16"):
        reparameterize_arclength(plane(), (_t("t"), _t("0")), 0.0, 1.0, 8)
