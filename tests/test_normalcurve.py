import math

import numpy as np
import pytest

from confgeo.conformal import EmbeddingRequiredError
from confgeo.exprkit import parse_scalar_field
from confgeo.geometry import VanishingCurvatureError, frenet
from confgeo.normalcurve import (
    classify_curve,
    frame_decompose,
    normal_component_identity_residual,
    synth_position,
    tangential_report,
    tangential_residual,
    theorem3_report,
    theorem3_residual,
)
from conftest import (
    catenoid_helicoid_pair,
    circle_curve,
    cylinder,
    e1,
    equator_curve,
    flat_exp_pair,
    helix_curve,
    identity_pair,
    latitude_curve,
    line_curve,
    offset_circle_curve,
    plane,
    sphere,
    sphere_homothety_pair,
    stereographic_pair,
)

RNG = np.random.default_rng(3145)

GRID32 = tuple(np.linspace(0.1, 6.0, 32))

NU_GENERIC = e1("1+0.5*s")
ETA_GENERIC = e1("0.5*s^2-0.25")
ZERO = e1("0")


def _rand_poly(rng) -> str:
    a, b, c = (round(float(x), 4) for x in rng.uniform(-1.5, 1.5, 3))
    return f"{a!r} + {b!r}*s + {c!r}*s^2"


# -- frame decomposition ----------------------------------------------------------


def test_decompose_equator():
    d = frame_decompose(sphere(), equator_curve(), 0.8)
    assert d.c_t == pytest.approx(0.0, abs=1e-12)
    assert d.nu == pytest.approx(-1.0, abs=1e-12)
    assert d.eta == pytest.approx(0.0, abs=1e-12)


def test_decompose_offset_circle_closed_form():
    # beta = (3+cos s, sin s, 0): beta.t = -3 sin s
    for s in (0.3, 1.2, 2.5):
        d = frame_decompose(plane(), offset_circle_curve(), s)
        assert d.c_t == pytest.approx(-3.0 * math.sin(s), abs=1e-12)


def test_decompose_line_rejected():
    with pytest.raises(VanishingCurvatureError):
        frame_decompose(plane(), line_curve(), 0.5)


def test_decompose_orthonormal_expansion_invariant():
    cases = [
        (sphere(), equator_curve(), (0.1, 6.1)),
        (sphere(), latitude_curve(), (0.1, 4.0)),
        (plane(), offset_circle_curve(), (0.0, 6.2)),
        (cylinder(), helix_curve(), (-3.0, 3.0)),
    ]
    for patch, curve, (lo, hi) in cases:
        for s in RNG.uniform(lo, hi, 25):
            d = frame_decompose(patch, curve, float(s))
            fr = frenet(patch, curve, float(s))
            lhs = float(fr.beta @ fr.beta)
            rhs = d.c_t ** 2 + d.c_n ** 2 + d.c_b ** 2
            assert abs(lhs - rhs) / max(1.0, lhs) < 1e-9


# -- classification -----------------------------------------------------------------


def test_classify_equator_normal():
    verdict = classify_curve(sphere(), equator_curve(), GRID32, tol=1e-8)
    assert verdict.verdict == "normal"
    assert verdict.max_offending < 1e-8


def test_classify_offset_circle_on_lifted_plane_generic():
    # realized at height z = 1 all three frame components stay bounded away
    # from zero, so the verdict is generic
    verdict = classify_curve(plane(z="1"), offset_circle_curve(), GRID32)
    assert verdict.verdict == "generic"
    assert verdict.satisfied == ()
    assert verdict.max_offending > 0.5


def test_classify_offset_circle_in_base_plane_is_osculating():
    # in the z = 0 plane the binormal is +-z_hat, so beta.b vanishes
    # identically: a planar curve through that plane is an osculating curve
    verdict = classify_curve(plane(), offset_circle_curve(), GRID32)
    assert verdict.verdict == "osculating"
    assert verdict.satisfied == ("osculating",)


def test_classify_unit_circle_reports_both_classes():
    verdict = classify_curve(plane(), circle_curve(), GRID32)
    assert verdict.verdict == "normal"
    assert verdict.satisfied == ("normal", "osculating")


def test_classify_undefined_on_straight_line():
    verdict = classify_curve(plane(), line_curve(), (0.2, 0.5, 0.9))
    assert verdict.verdict == "undefined"


def test_classify_empty_grid_rejected():
    with pytest.raises(ValueError):
        classify_curve(plane(), circle_curve(), ())


def test_normal_iff_constant_radius_property():
    # d/ds |beta|^2 = 2 beta.t: classification agrees with |beta|^2 constancy,
    # both ways, over randomly centered circles on the lifted plane
    lifted = plane(z="1")
    grid = tuple(np.linspace(0.05, 3.0, 64))
    for k in range(20):
        if k % 3 == 0:
            cx = cy = 0.0          # axis-centered: genuinely normal
        else:
            cx, cy = RNG.uniform(-0.8, 0.8, 2)
        radius = float(RNG.uniform(0.6, 1.4))
        curve = circle_curve(radius, float(cx), float(cy))
        verdict = classify_curve(lifted, curve, grid)
        norms = []
        for s in grid:
            cj = curve.jets(s)
            norms.append(cj.u ** 2 + cj.v ** 2 + 1.0)
        is_constant = (max(norms) - min(norms)) < 1e-7
        is_normal = verdict.component_maxima["c_t"] < 1e-8
        assert is_constant == is_normal


# -- position synthesis ----------------------------------------------------------------


def test_synth_reproduces_equator_position():
    sph = sphere()
    eq = equator_curve()
    for s in (0.4, 1.3, 2.8):
        built = synth_position(sph, eq, e1("-1"), ZERO, s)
        fr = frenet(sph, eq, s)
        assert np.allclose(built, fr.beta, atol=1e-12)


def test_synth_binormal_direction():
    # oracle t x n: the equator binormal is +z_hat under this parameterization
    built = synth_position(sphere(), equator_curve(), ZERO, e1("1"), 1.1)
    assert np.allclose(built, [0.0, 0.0, 1.0], atol=1e-12)


def test_synth_matches_frenet_route_everywhere():
    cases = [
        (sphere(), equator_curve(), (0.1, 6.1)),
        (sphere(), latitude_curve(), (0.1, 4.0)),
        (plane(), offset_circle_curve(), (0.0, 6.2)),
        (cylinder(), helix_curve(), (-3.0, 3.0)),
    ]
    rng = np.random.default_rng(77)
    for patch, curve, (lo, hi) in cases:
        nu = parse_scalar_field(_rand_poly(rng), ("s",))
        eta = parse_scalar_field(_rand_poly(rng), ("s",))
        for s in rng.uniform(lo, hi, 25):
            s = float(s)
            built = synth_position(patch, curve, nu, eta, s)
            fr = frenet(patch, curve, s)
            from confgeo.exprkit import evaluate
            want = evaluate(nu, s) * fr.n + evaluate(eta, s) * fr.b
            assert np.linalg.norm(built - want) < 1e-9


def test_synth_vanishing_curvature():
    with pytest.raises(VanishingCurvatureError):
        synth_position(plane(), line_curve(), NU_GENERIC, ETA_GENERIC, 0.3)


# -- normal-component identity (within one surface) --------------------------------------


def test_normal_component_equator_nu_only():
    # both sides are the normal projection of -n: equal to -kappa_n = -1
    sph = sphere()
    res = normal_component_identity_residual(sph, equator_curve(), e1("-1"), ZERO, 0.9)
    assert res < 1e-10
    built = synth_position(sph, equator_curve(), e1("-1"), ZERO, 0.9)
    from confgeo.geometry import second_fundamental
    cj = equator_curve().jets(0.9)
    direct = float(built @ second_fundamental(sph, cj.u, cj.v).n_vec)
    assert direct == pytest.approx(-1.0, abs=1e-12)
    assert abs(direct) == pytest.approx(1.0, abs=1e-12)


def test_normal_component_equator_eta_only():
    # great circle: the Beltrami bracket vanishes, both sides are zero
    res = normal_component_identity_residual(sphere(), equator_curve(), ZERO, e1("1"), 0.9)
    assert res < 1e-10


def test_normal_component_latitude_profile_mix():
    sph = sphere()
    lat = latitude_curve()
    worst = max(normal_component_identity_residual(sph, lat, e1("1"), e1("1"), float(s))
                for s in np.linspace(0.2, 3.8, 10))
    assert worst < 1e-8


def test_normal_component_random_profiles_across_fixtures():
    from confgeo.calculus import reparameterize_arclength
    from conftest import catenoid
    cat = catenoid()
    waist = reparameterize_arclength(
        cat, (parse_scalar_field("t", ("t",)), parse_scalar_field("0.6", ("t",))),
        0.12, 1.15, 24)
    fixtures = [
        (sphere(), equator_curve(), (0.1, 6.1)),
        (sphere(), latitude_curve(), (0.1, 4.0)),
        (plane(), offset_circle_curve(), (0.0, 6.2)),
        (cylinder(), helix_curve(), (-3.0, 3.0)),
        (cat, waist, (0.05, waist.length - 0.05)),
    ]
    rng = np.random.default_rng(515)
    for patch, curve, (lo, hi) in fixtures:
        nu = parse_scalar_field(_rand_poly(rng), ("s",))
        eta = parse_scalar_field(_rand_poly(rng), ("s",))
        for s in rng.uniform(lo, hi, 20):
            assert normal_component_identity_residual(patch, curve, nu, eta, float(s)) < 1e-8


# -- theorem 3 (normal component under conformal change) -----------------------------------


def test_theorem3_identity_pair_both_variants():
    pair = identity_pair(sphere())
    for s in (0.4, 1.1, 2.9):
        rep = theorem3_report(pair, latitude_curve(), NU_GENERIC, ETA_GENERIC, s)
        assert rep["as_printed"] < 1e-9
        assert rep["zeta4_on_h"] < 1e-9
        assert rep["h"] == 0.0


def test_theorem3_isometric_pair_catenoid_helicoid():
    pair = catenoid_helicoid_pair()
    from confgeo.calculus import reparameterize_arclength
    raw = (parse_scalar_field("t", ("t",)), parse_scalar_field("0.6", ("t",)))
    curve = reparameterize_arclength(pair.source, raw, 0.12, 1.15, 24)
    for s in np.linspace(0.05, curve.length - 0.05, 5):
        rep = theorem3_report(pair, curve, NU_GENERIC, ETA_GENERIC, float(s))
        assert rep["as_printed"] < 1e-9
        # kn genuinely differs between the two embeddings; the identity still holds
        assert abs(rep["kappa_n_src"] - rep["kappa_n_tgt"]) > 1e-3


def test_theorem3_homothety_latitude_binormal_free_profile():
    # sphere vs 3-sphere with eta = 0: the homothety corollary
    # beta~.N~ - c^4 beta.N = (nu/kappa)(kn~ - c^4 kn) holds tightly
    pair = sphere_homothety_pair()
    lat = latitude_curve()
    for s in np.linspace(0.2, 3.8, 10):
        rep = theorem3_report(pair, lat, NU_GENERIC, ZERO, float(s))
        assert rep["h"] == 0.0
        assert rep["as_printed"] < 1e-8
        assert rep["zeta4_on_h"] < 1e-8


def test_theorem3_homothety_equator_generic_profile():
    # on a geodesic the bracket term vanishes, so generic eta also passes
    pair = sphere_homothety_pair()
    rep = theorem3_report(pair, equator_curve(), NU_GENERIC, ETA_GENERIC, 1.3)
    assert rep["as_printed"] < 1e-8


def test_theorem3_stereographic_latitude_image():
    # unit circle maps to the equator; with eta = 0 both variants agree and pass
    pair = stereographic_pair()
    circ = circle_curve()
    best = {"as_printed": 0.0, "zeta4_on_h": 0.0}
    for s in np.linspace(0.1, 6.1, 10):
        rep = theorem3_report(pair, circ, NU_GENERIC, ZERO, float(s))
        for key in best:
            best[key] = max(best[key], rep[key])
    assert best["as_printed"] < 1e-6
    assert best["zeta4_on_h"] < 1e-6


def test_theorem3_requires_embedded_pair():
    with pytest.raises(EmbeddingRequiredError):
        theorem3_residual(flat_exp_pair(), line_curve(), NU_GENERIC, ZERO, 0.2)


def test_theorem3_correction_flag_validated():
    with pytest.raises(ValueError, match="correction"):
        theorem3_residual(identity_pair(sphere()), latitude_curve(),
                          NU_GENERIC, ZERO, 0.5, correction="bogus")


# -- tangential identities -------------------------------------------------------------------


def test_tangential_identity_pair():
    pair = identity_pair(sphere())
    for s in (0.3, 1.2, 3.1):
        r_u, r_v, r_T = tangential_residual(pair, latitude_curve(),
                                            NU_GENERIC, ETA_GENERIC, s)
        assert max(r_u, r_v, r_T) < 1e-9


def test_tangential_isometric_embeddings_differ_but_identity_holds():
    pair = catenoid_helicoid_pair()
    from confgeo.calculus import reparameterize_arclength
    raw = (parse_scalar_field("t", ("t",)), parse_scalar_field("0.6", ("t",)))
    curve = reparameterize_arclength(pair.source, raw, 0.12, 1.15, 24)
    for s in np.linspace(0.1, curve.length - 0.1, 5):
        r_u, r_v, r_T = tangential_residual(pair, curve, NU_GENERIC, ETA_GENERIC, float(s))
        assert max(r_u, r_v, r_T) < 1e-9


def test_tangential_homothety_latitude_normal_direction_profile():
    # nu = 0 (position in the normal direction): tangential component is
    # homothetic invariant; with the tangent defaults both sides vanish
    pair = sphere_homothety_pair()
    lat = latitude_curve()
    for s in np.linspace(0.2, 3.8, 8):
        rep = tangential_report(pair, lat, ZERO, ETA_GENERIC, float(s))
        assert rep["r_T"] < 1e-8
        assert abs(rep["lhs_T"]) < 1e-8
        assert abs(rep["rhs_T"]) < 1e-8


def test_tangential_stereographic_circle_generic_profile():
    pair = stereographic_pair()
    circ = circle_curve()
    for s in np.linspace(0.1, 6.1, 10):
        r_u, r_v, r_T = tangential_residual(pair, circ, NU_GENERIC, ETA_GENERIC, float(s))
        assert max(r_u, r_v, r_T) < 1e-6


def test_tangential_ofcenter_circle_on_stereographic_pair():
    # zeta varies along an off-center circle; the exact identities still hold
    pair = stereographic_pair()
    circ = circle_curve(0.5, 0.2, -0.1)
    for s in np.linspace(0.1, 3.0, 6):
        r_u, r_v, r_T = tangential_residual(pair, circ, NU_GENERIC, ETA_GENERIC, float(s))
        assert max(r_u, r_v, r_T) < 1e-9


def test_tangential_custom_tangent_coefficients():
    pair = stereographic_pair()
    rep = tangential_report(pair, circle_curve(), NU_GENERIC, ETA_GENERIC, 0.9,
                            a=0.7, b=-0.2)
    assert rep["r_T"] < 1e-9


def test_tangential_requires_embedded_pair():
    with pytest.raises(EmbeddingRequiredError):
        tangential_residual(flat_exp_pair(), line_curve(), NU_GENERIC, ZERO, 0.2)
