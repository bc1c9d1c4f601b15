import math

import numpy as np
import pytest

from confgeo.exprkit import Jet2, evaluate
from confgeo.conformal import (
    AmbientMapError,
    ConformalPair,
    EmbeddingRequiredError,
    NonConformalError,
    ambient_jacobian,
    beltrami_bracket_shift,
    christoffel_shift_residual,
    dilation_field,
    dilation_jet,
    f_function,
    g_functions,
    geodesic_deviation_report,
    h_function,
    image_geodesic_curvature,
    pushforward_residual,
    theta_bracket,
    theta_terms,
)
from confgeo.geometry import FirstForm, SurfacePatch, christoffel, first_fundamental
from conftest import (
    STEREO_BOX,
    catenoid_helicoid_pair,
    diag_line,
    e2,
    e3,
    flat_exp_pair,
    flat_metric,
    identity_pair,
    inversion_sphere_pair,
    latitude_curve,
    line_curve,
    plane,
    scaling_ambient_pair,
    sheared_stereographic_pair,
    sphere,
    sphere_homothety_pair,
    stereographic_pair,
)

RNG = np.random.default_rng(991)

FLAT_FORM = FirstForm(1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def _grid(box, n=5, margin=0.08):
    (u0, u1), (v0, v1) = box
    us = np.linspace(u0 + margin * (u1 - u0), u1 - margin * (u1 - u0), n)
    vs = np.linspace(v0 + margin * (v1 - v0), v1 - margin * (v1 - v0), n)
    return [(float(u), float(v)) for u in us for v in vs]


# -- pair validation -----------------------------------------------------------


def test_pair_requires_shared_domain():
    with pytest.raises(ValueError, match="domain box"):
        ConformalPair(plane(((-1.0, 1.0), (-1.0, 1.0))),
                      plane(((-2.0, 2.0), (-1.0, 1.0))))


def test_pair_rejects_nonpositive_dilation():
    with pytest.raises(ValueError, match="positive"):
        ConformalPair(plane(STEREO_BOX), plane(STEREO_BOX), dilation=e2("u-5"))


def test_pair_checks_ambient_map_at_load():
    with pytest.raises(AmbientMapError, match="disagrees"):
        ConformalPair(plane(STEREO_BOX), plane(STEREO_BOX),
                      ambient_map=(e3("x+1"), e3("y"), e3("z")))


SAMPLE_BOX = ((0.0, 4.0), (0.0, 4.0))  # sample points at 1, 2, 3 on each axis


def test_pair_names_first_nonpositive_dilation_sample():
    # negative at (1, 3) and (3, 1): the u-major sweep meets (1, 3) first
    with pytest.raises(ValueError, match=r"positive, got -0\.5 at \(1\.0, 3\.0\)$"):
        ConformalPair(plane(SAMPLE_BOX), plane(SAMPLE_BOX), dilation=e2("(u-2)*(v-2)+0.5"))


def test_pair_names_first_ambient_mismatch_sample():
    with pytest.raises(AmbientMapError, match=r"by 1\.0 at \(2\.0, 1\.0\)$"):
        ConformalPair(plane(SAMPLE_BOX), plane(SAMPLE_BOX),
                      ambient_map=(e3("x"), e3("y"), e3("z+(x-1)*(y-2)")))


def test_pair_ambient_map_needs_embedded_members():
    with pytest.raises(AmbientMapError, match="requires embedded patches"):
        ConformalPair(flat_metric(), plane(STEREO_BOX),
                      ambient_map=(e3("x"), e3("y"), e3("z")))


# -- dilation field -------------------------------------------------------------


def test_dilation_identity_pair():
    zeta, residuals = dilation_field(identity_pair(plane(STEREO_BOX)), 0.3, -0.4)
    assert zeta == 1.0
    assert residuals == (0.0, 0.0, 0.0)


def test_dilation_homothety_of_plane():
    target = SurfacePatch(e2("3*u"), e2("3*v"), e2("0"), STEREO_BOX)
    zeta, residuals = dilation_field(ConformalPair(plane(STEREO_BOX), target), 0.2, 0.9)
    assert zeta == 3.0
    assert residuals == (0.0, 0.0, 0.0)


def test_dilation_stereographic_closed_form_and_fd_oracle():
    pair = stereographic_pair()
    zeta0, res0 = dilation_field(pair, 0.0, 0.0)
    assert zeta0 == pytest.approx(2.0, abs=1e-12)
    assert max(res0) < 1e-10
    zeta11, _ = dilation_field(pair, 1.0, 1.0)
    assert zeta11 == pytest.approx(2.0 / 3.0, abs=1e-12)
    # fd oracle: metric of the image patch by finite differences
    from confgeo.calculus import fd_partial
    for (u, v) in [(0.3, -0.2), (0.6, 0.5), (-0.8, 0.1)]:
        tgt = pair.target
        pu = np.array([fd_partial(c, (u, v), (1, 0)) for c in (tgt.x, tgt.y, tgt.z)])
        zeta_fd = math.sqrt(float(pu @ pu))  # source E = 1
        zeta, _ = dilation_field(pair, u, v)
        assert zeta == pytest.approx(zeta_fd, abs=1e-7)
        assert zeta == pytest.approx(2.0 / (1.0 + u * u + v * v), abs=1e-12)


def test_non_conformal_pair_raises_with_residuals():
    stretched = SurfacePatch(e2("u"), e2("2*v"), e2("0"), STEREO_BOX)
    with pytest.raises(NonConformalError) as exc:
        dilation_field(ConformalPair(plane(STEREO_BOX), stretched), 0.1, 0.1)
    assert exc.value.residuals is not None
    assert exc.value.residuals[2] == pytest.approx(3.0, abs=1e-12)  # |1*1 - 4|


def test_declared_dilation_mismatch_detected():
    target = SurfacePatch(e2("3*u"), e2("3*v"), e2("0"), STEREO_BOX)
    pair = ConformalPair(plane(STEREO_BOX), target, dilation=e2("2"))
    with pytest.raises(NonConformalError, match="declared dilation"):
        dilation_field(pair, 0.2, 0.2)


def test_dilation_consistency_across_coefficients():
    # zeta from E, F (where F != 0) and G agree on conformal fixtures
    pairs = [stereographic_pair(), sphere_homothety_pair(), sheared_stereographic_pair()]
    for pair in pairs:
        for (u, v) in _grid(pair.source.domain, n=4):
            m, mt = pair.forms(u, v)
            z_e = math.sqrt(mt.E / m.E)
            z_g = math.sqrt(mt.G / m.G)
            assert abs(z_e - z_g) / z_e < 1e-8
            if abs(m.F) > 1e-6:
                z_f = math.sqrt(mt.F / m.F)
                assert abs(z_e - z_f) / z_e < 1e-8


# -- theta terms -----------------------------------------------------------------


def test_theta_zero_for_unit_dilation_exactly():
    m = first_fundamental(sphere(), 0.9, 1.1)
    th = theta_terms(m, Jet2(1.0))
    assert (th.t111, th.t112, th.t121, th.t122, th.t221, th.t222) == (0.0,) * 6


def test_theta_zero_for_constant_dilation_property():
    for _ in range(20):
        E, G = RNG.uniform(0.5, 3.0, 2)
        F = RNG.uniform(-0.4, 0.4)
        if E * G - F * F <= 0.1:
            continue
        m = FirstForm(E, F, G, math.sqrt(E * G - F * F),
                      *RNG.uniform(-1, 1, 6))
        th = theta_terms(m, Jet2(float(RNG.uniform(0.5, 4.0))))
        assert (th.t111, th.t112, th.t121, th.t122, th.t221, th.t222) == (0.0,) * 6


def test_theta_exponential_dilation_closed_form():
    # flat metric, zeta = e^u at (0,0): theta^1_11 = theta^2_12 = 1,
    # theta^1_22 = -1, others 0
    th = theta_terms(FLAT_FORM, Jet2(1.0, du=1.0))
    assert th.t111 == 1.0
    assert th.t122 == 1.0
    assert th.t221 == -1.0
    assert (th.t112, th.t121, th.t222) == (0.0, 0.0, 0.0)


# -- Christoffel shift -------------------------------------------------------------


def test_shift_isometric_catenoid_helicoid():
    residuals = christoffel_shift_residual(catenoid_helicoid_pair(), 0.4, 0.7)
    assert max(residuals) < 1e-8


def test_shift_flat_vs_conformally_flat():
    pair = flat_exp_pair()
    residuals = christoffel_shift_residual(pair, 0.0, 0.0)
    assert max(residuals) < 1e-10
    # Gamma~^1_11 = 1 must be exactly 0 + theta^1_11
    gt = christoffel(pair.target.first_form(0.0, 0.0))
    th = theta_terms(pair.source.first_form(0.0, 0.0), dilation_jet(pair, 0.0, 0.0))
    assert gt.g111 == pytest.approx(1.0, abs=1e-14)
    assert th.t111 == pytest.approx(1.0, abs=1e-14)


def test_shift_stereographic_grid_with_12a_oracle():
    pair = stereographic_pair()
    worst = max(max(christoffel_shift_residual(pair, u, v))
                for (u, v) in _grid(STEREO_BOX, n=5))
    assert worst < 1e-7
    # oracle: target metric derivative E~_u must equal 2 zeta zeta_u E + zeta^2 E_u
    from confgeo.calculus import fd_partial
    u, v = 0.4, -0.3
    m, mt = pair.forms(u, v)
    zj = dilation_jet(pair, u, v)

    def target_E(uu, vv):
        return pair.target.first_form(uu, vv).E

    h = 1e-5
    fd_Etu = (target_E(u + h, v) - target_E(u - h, v)) / (2 * h)
    assert fd_Etu == pytest.approx(2 * zj.value * zj.du * m.E + zj.value ** 2 * m.E_u,
                                   abs=1e-8)
    assert fd_Etu == pytest.approx(mt.E_u, abs=1e-8)


def test_shift_identity_at_100_random_points_per_pair():
    pairs = [stereographic_pair(), sphere_homothety_pair(), catenoid_helicoid_pair(),
             flat_exp_pair(), sheared_stereographic_pair()]
    rng = np.random.default_rng(6060)
    for pair in pairs:
        (u0, u1), (v0, v1) = pair.source.domain
        for _ in range(100):
            u = float(rng.uniform(u0 + 0.05 * (u1 - u0), u1 - 0.05 * (u1 - u0)))
            v = float(rng.uniform(v0 + 0.05 * (v1 - v0), v1 - 0.05 * (v1 - v0)))
            assert max(christoffel_shift_residual(pair, u, v)) < 1e-7


def test_shift_with_nonzero_F_metric():
    # sheared coordinates give F != 0 on both sides; the shift identity holds
    # only with the mixed-term Christoffel forms used here
    pair = sheared_stereographic_pair()
    m, _ = pair.forms(0.2, -0.1)
    assert abs(m.F) > 0.1
    worst = max(max(christoffel_shift_residual(pair, u, v))
                for (u, v) in _grid(pair.source.domain, n=5))
    assert worst < 1e-7


# -- bracket shift -------------------------------------------------------------------


def test_bracket_shift_isometry_is_zero():
    bs = beltrami_bracket_shift(identity_pair(sphere()), latitude_curve(), 0.7)
    assert bs.theta_bracket == 0.0
    assert bs.residual < 1e-14


def test_bracket_shift_stereographic_with_fd_oracle():
    pair = stereographic_pair()
    bs = beltrami_bracket_shift(pair, line_curve(), 0.3)
    assert bs.residual < 1e-8
    # independent evaluation of both brackets from fd-based Christoffels
    from confgeo.geometry import beltrami_bracket
    from test_geometry import _fd_first_form
    cj = line_curve().jets(0.3)
    b_src_fd = beltrami_bracket(christoffel(_fd_first_form(pair.source, cj.u, cj.v)), cj)
    b_tgt_fd = beltrami_bracket(christoffel(_fd_first_form(pair.target, cj.u, cj.v)), cj)
    assert b_src_fd == pytest.approx(bs.b_src, abs=1e-6)
    assert b_tgt_fd == pytest.approx(bs.b_tgt, abs=1e-6)
    assert abs(b_tgt_fd - b_src_fd - bs.theta_bracket) < 1e-6


def test_bracket_shift_exponential_line_cases():
    pair = flat_exp_pair()
    # straight line along u: all brackets vanish
    bs = beltrami_bracket_shift(pair, line_curve(), 0.0)
    assert bs.b_tgt == pytest.approx(bs.b_src + bs.theta_bracket, abs=1e-14)
    assert bs.theta_bracket == pytest.approx(0.0, abs=1e-14)
    # tilted line: theta bracket = v' ((2 theta^2_12 - theta^1_11) u'^2 + ... ) != 0
    tilted = diag_line(0.4)
    bs2 = beltrami_bracket_shift(pair, tilted, 0.0)
    assert bs2.residual < 1e-12
    assert bs2.theta_bracket == pytest.approx(math.sin(0.4), abs=1e-12)
    assert bs2.b_src == pytest.approx(0.0, abs=1e-14)
    assert bs2.b_tgt == pytest.approx(math.sin(0.4), abs=1e-12)


def test_bracket_shift_requires_unit_speed():
    from confgeo.geometry import NotUnitSpeedError, ParamCurve
    from conftest import e1
    with pytest.raises(NotUnitSpeedError):
        beltrami_bracket_shift(stereographic_pair(), ParamCurve(e1("2*s"), e1("0")), 0.1)


# -- named scalars ----------------------------------------------------------------------


def test_h_function_cases():
    from confgeo.geometry import CurveJets
    th0 = theta_terms(FLAT_FORM, Jet2(1.0))
    assert h_function(FLAT_FORM, th0, CurveJets(0, 0, 1.0, 0.0, 0, 0)) == 0.0
    th = theta_terms(FLAT_FORM, Jet2(1.0, du=1.0))
    # u' = 0, v' = 1: h = -theta^1_22 W^2 = 1
    assert h_function(FLAT_FORM, th, CurveJets(0, 0, 0.0, 1.0, 0, 0)) == 1.0
    # u' = 1, v' = 0: h = theta^2_11 W^2 = 0
    assert h_function(FLAT_FORM, th, CurveJets(0, 0, 1.0, 0.0, 0, 0)) == 0.0


def test_g_functions_cases():
    from confgeo.geometry import CurveJets
    cj = CurveJets(0, 0, 1.0, 0.0, 0, 0)
    assert g_functions(FLAT_FORM, Jet2(2.5), cj, 1.0) == (0.0, 0.0)       # homothety
    assert g_functions(FLAT_FORM, Jet2(1.0, du=1.0), cj, 0.0) == (0.0, 0.0)  # nu/kappa = 0
    g1, g2 = g_functions(FLAT_FORM, Jet2(1.0, du=1.0), cj, 1.0)
    assert (g1, g2) == (1.0, 0.0)


def test_f_function_matches_theta_bracket():
    from confgeo.geometry import CurveJets
    m = first_fundamental(sphere(), 0.8, 0.9)
    th = theta_terms(m, Jet2(1.3, du=0.2, dv=-0.4))
    cj = CurveJets(0.8, 0.9, 0.6, 0.8, 0.1, -0.2)
    assert f_function(m, th, cj) == pytest.approx(theta_bracket(th, cj) * m.W ** 2, rel=1e-14)


# -- geodesic deviation report ------------------------------------------------------------


def test_deviation_report_isometry_matching_pairings():
    pair = identity_pair(sphere())
    rep = geodesic_deviation_report(pair, latitude_curve(), 0.8, tol=1e-10)
    assert rep.f == 0.0
    assert rep.i20_residuals["W1/W1"] < 1e-14
    assert rep.i20_residuals["W2/W2"] < 1e-14
    assert "W1/W1" in rep.passing and "W2/W2" in rep.passing
    # kg~ = kg under matching weight conventions
    assert rep.kappa_g_tgt["W1"] == pytest.approx(rep.kappa_g_src["W1"], abs=1e-8)
    assert rep.kappa_g_tgt["W2"] == pytest.approx(rep.kappa_g_src["W2"], abs=1e-8)
    # mixed pairings are genuinely different off W = 1
    assert rep.i20_residuals["W1/W2"] > 1e-3


def test_deviation_report_homothety_scaling_in_W_factor():
    pair = sphere_homothety_pair()
    rep = geodesic_deviation_report(pair, latitude_curve(), 0.8, tol=1e-10)
    assert rep.f == 0.0
    # brackets equal, so kg~(W1) = c^2 kg(W1): the scaling sits entirely in W~
    assert rep.kappa_g_tgt["W1"] == pytest.approx(9.0 * rep.kappa_g_src["W1"], rel=1e-12)
    assert rep.i20_residuals["W1/W1"] < 1e-12
    assert rep.i20_residuals["W2/W2"] > 1e-3


def test_deviation_report_stereographic_line():
    pair = stereographic_pair()
    for s in np.linspace(-0.8, 0.8, 10):
        rep = geodesic_deviation_report(pair, line_curve(), float(s), tol=1e-6)
        assert rep.passing == ("W1/W1", "W1/W2", "W2/W1", "W2/W2")
        oracle = image_geodesic_curvature(pair, line_curve(), float(s))
        assert oracle == pytest.approx(0.0, abs=1e-12)


def test_image_curvature_matches_beltrami_on_source():
    # sanity for the brute-force oracle: on an identity pair it reproduces
    # the W1 geodesic curvature of the source curve
    from confgeo.geometry import geodesic_curvature
    pair = identity_pair(sphere())
    for s in (0.4, 0.9, 1.7):
        direct = image_geodesic_curvature(pair, latitude_curve(), s)
        assert direct == pytest.approx(
            geodesic_curvature(sphere(), latitude_curve(), s, "W1"), rel=1e-10)


def test_image_curvature_needs_embedding():
    with pytest.raises(EmbeddingRequiredError):
        image_geodesic_curvature(flat_exp_pair(), line_curve(), 0.1)


# -- ambient maps -----------------------------------------------------------------------


def test_ambient_jacobian_identity_and_scaling():
    ident = (e3("x"), e3("y"), e3("z"))
    assert np.allclose(ambient_jacobian(ident, (0.3, -0.7, 2.0)), np.eye(3))
    scale = (e3("3*x"), e3("3*y"), e3("3*z"))
    assert np.allclose(ambient_jacobian(scale, (1.0, 1.0, 1.0)), 3.0 * np.eye(3))


def test_ambient_jacobian_inversion_with_fd_oracle():
    inv = (e3("x/(x^2+y^2+z^2)"), e3("y/(x^2+y^2+z^2)"), e3("z/(x^2+y^2+z^2)"))
    jac = ambient_jacobian(inv, (0.0, 0.0, 1.0))
    assert np.allclose(jac, np.diag([1.0, 1.0, -1.0]), atol=1e-14)
    p = np.array([0.4, -0.2, 1.5])
    jac_p = ambient_jacobian(inv, p)
    h = 1e-6
    for col in range(3):
        dp = np.zeros(3)
        dp[col] = h
        fd_col = [(evaluate(c, *(p + dp)) - evaluate(c, *(p - dp))) / (2 * h) for c in inv]
        assert np.allclose(jac_p[:, col], fd_col, atol=1e-8)


def test_pushforward_identity_and_scaling():
    ident = ConformalPair(plane(STEREO_BOX), plane(STEREO_BOX),
                          ambient_map=(e3("x"), e3("y"), e3("z")))
    assert pushforward_residual(ident, 0.2, 0.9) == (0.0, 0.0)
    assert pushforward_residual(scaling_ambient_pair(), 0.4, 0.1) == (0.0, 0.0)


def test_pushforward_inversion_sphere_grid():
    pair = inversion_sphere_pair()
    worst = max(max(pushforward_residual(pair, u, v))
                for (u, v) in _grid(pair.source.domain, n=5))
    assert worst < 1e-8


def test_pushforward_requires_ambient_map():
    with pytest.raises(AmbientMapError):
        pushforward_residual(sphere_homothety_pair(), 1.0, 1.0)
