import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confgeo.conformal import (
    PAIRINGS,
    ConformalError,
    beltrami_bracket_shift,
    dilation_jet,
    geodesic_deviation_report,
    image_geodesic_curvature,
)
from confgeo.exprkit import evaluate, parse_scalar_field
from confgeo.geometry import GeometryError, ParamCurve, beta_jets, dot, frenet
from confgeo.normalcurve import (
    classify_curve,
    frame_decompose,
    synth_position,
    tangential_report,
    theorem3_report,
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
    inversion_sphere_pair,
    latitude_curve,
    line_curve,
    offset_circle_curve,
    plane,
    sphere,
    sphere_homothety_pair,
    stereographic_pair,
)
from oracles import normal_component_identity_residual

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
    assert d.c_n == pytest.approx(-1.0, abs=1e-12)
    assert d.c_b == pytest.approx(0.0, abs=1e-12)


def test_decompose_offset_circle_closed_form():
    # beta = (3+cos s, sin s, 0): beta.t = -3 sin s
    for s in (0.3, 1.2, 2.5):
        d = frame_decompose(plane(), offset_circle_curve(), s)
        assert d.c_t == pytest.approx(-3.0 * math.sin(s), abs=1e-12)


def test_decompose_line_rejected():
    with pytest.raises(GeometryError, match=r"^kappa = 0\.0 at s=0\.5: Frenet frame undefined$"):
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
    with pytest.raises(GeometryError, match=r"^kappa = 0\.0 at s=0\.3: Frenet frame undefined$"):
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
    direct = float(built @ second_fundamental(sph.jets(cj.u, cj.v, 2), cj.u, cj.v).n_vec)
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
    with pytest.raises(ConformalError, match="deviation checks need embedded patches"):
        theorem3_report(flat_exp_pair(), line_curve(), NU_GENERIC, ZERO, 0.2)


# -- tangential identities -------------------------------------------------------------------


def test_tangential_identity_pair():
    pair = identity_pair(sphere())
    for s in (0.3, 1.2, 3.1):
        rep = tangential_report(pair, latitude_curve(), NU_GENERIC, ETA_GENERIC, s)
        assert max(rep["r_u"], rep["r_v"], rep["r_T"]) < 1e-9


def test_tangential_isometric_embeddings_differ_but_identity_holds():
    pair = catenoid_helicoid_pair()
    from confgeo.calculus import reparameterize_arclength
    raw = (parse_scalar_field("t", ("t",)), parse_scalar_field("0.6", ("t",)))
    curve = reparameterize_arclength(pair.source, raw, 0.12, 1.15, 24)
    for s in np.linspace(0.1, curve.length - 0.1, 5):
        rep = tangential_report(pair, curve, NU_GENERIC, ETA_GENERIC, float(s))
        assert max(rep["r_u"], rep["r_v"], rep["r_T"]) < 1e-9


def test_tangential_homothety_latitude_normal_direction_profile():
    # nu = 0 (position in the normal direction): tangential component is
    # homothetic invariant; along the tangent both sides vanish
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
        rep = tangential_report(pair, circ, NU_GENERIC, ETA_GENERIC, float(s))
        assert max(rep["r_u"], rep["r_v"], rep["r_T"]) < 1e-6


def test_tangential_ofcenter_circle_on_stereographic_pair():
    # zeta varies along an off-center circle; the exact identities still hold
    pair = stereographic_pair()
    circ = circle_curve(0.5, 0.2, -0.1)
    for s in np.linspace(0.1, 3.0, 6):
        rep = tangential_report(pair, circ, NU_GENERIC, ETA_GENERIC, float(s))
        assert max(rep["r_u"], rep["r_v"], rep["r_T"]) < 1e-9


def test_tangential_requires_embedded_pair():
    with pytest.raises(ConformalError, match="deviation checks need embedded patches"):
        tangential_report(flat_exp_pair(), line_curve(), NU_GENERIC, ZERO, 0.2)


# -- drawn circles: the exact identities where every term bites ------------------------------
#
# u = a + r cos(s/r), v = b + r sin(s/r) has unit speed in the plane, and
# zeta varies along it on both pairs, so the terms that set each identity
# apart from its reduced form are non-zero.  Each identity is checked
# relative to its largest term at each point.


def _rel(residual, *terms) -> float:
    return float(np.max(residual / np.max(np.abs(np.array(terms)), axis=0)))


def _circle_grid(r, a, b):
    return circle_curve(r, a, b), np.linspace(0.05, 2.0 * math.pi * r - 0.05, 16)


def _bracket_and_geodesic(pair, curve, s):
    """The relative residuals of B~ = B + Theta and of kg~(W1) - zeta^2
    kg(W1) = zeta^2 W Theta, with the bracket shift, the geodesic report and
    the source's first form that the other identities read."""
    bs = beltrami_bracket_shift(pair, curve, s)
    rep = geodesic_deviation_report(pair, curve, s)
    cj = curve.jets(s)
    m = pair.source.first_form(cj.u, cj.v)
    z, w_theta = rep.zeta, m.W * bs.theta_bracket
    kg, kgt = rep.kappa_g_src["W1"], rep.kappa_g_tgt["W1"]
    rel = {"bracket": _rel(bs.residual, bs.b_src, bs.b_tgt, bs.theta_bracket),
           "geodesic": _rel(abs(kgt - z * z * kg - z * z * w_theta),
                            kgt, z * z * kg, z * z * w_theta)}
    return rel, bs, rep, m


def _every_identity(pair, curve, s, seed) -> dict:
    """The relative residual of each exact identity along ``curve`` on an
    embedded pair, for random quadratic nu and eta drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    nu, eta = e1(_rand_poly(rng)), e1(_rand_poly(rng))
    rel, bs, dev, m = _bracket_and_geodesic(pair, curve, s)
    cj = curve.jets(s)
    kappa = frenet(pair.source, curve, s, with_torsion=False).kappa
    nk, ek = evaluate(nu, s) / kappa, evaluate(eta, s) / kappa

    z, kg, w_theta = dev.zeta, dev.kappa_g_src["W1"], m.W * bs.theta_bracket
    oracle = z * image_geodesic_curvature(pair, curve, s)
    rel["oracle"] = _rel(abs(oracle - kg - w_theta), oracle, kg, w_theta)

    rep = theorem3_report(pair, curve, nu, eta, s)
    z, kn, knt = rep["zeta"], rep["kappa_n_src"], rep["kappa_n_tgt"]
    terms = (rep["lhs"], nk * knt, nk * z ** 4 * kn, ek * z * z * w_theta,
             ek * z * z * m.W * (1.0 - z * z) * bs.b_src)
    rel["theorem3"] = _rel(abs(terms[0] - terms[1] + terms[2] - terms[3] - terms[4]), *terms)

    # each left side is beta~.X~ - zeta^2 beta.X, whose terms the source
    # side bounds: beta~.X~ is the left side plus zeta^2 beta.X
    tan = tangential_report(pair, curve, nu, eta, s)
    z, wt = tan["zeta"], pair.target.first_form(cj.u, cj.v).W
    beta = synth_position(pair.source, curve, nu, eta, s)
    pj, beta1, _ = beta_jets(pair.source, cj)
    bu, bv, bt = (z * z * dot(beta, x) for x in (pj.pu, pj.pv, beta1))
    rel["r_u"] = _rel(tan["r_u"], bu, tan["g1"], ek * cj.v1 * wt * knt,
                      ek * cj.v1 * z * z * m.W * kn)
    rel["r_v"] = _rel(tan["r_v"], bv, tan["g2"], ek * cj.u1 * wt * knt,
                      ek * cj.u1 * z * z * m.W * kn)
    rel["r_T"] = _rel(tan["r_T"], bt, tan["lhs_T"], cj.u1 * tan["g1"], cj.v1 * tan["g2"])
    _, zj = dilation_jet(pair, cj.u, cj.v, *pair.forms(cj.u, cj.v))
    along = (nk * z * zj.du * cj.u1, nk * z * zj.dv * cj.v1)
    rel["invariance"] = _rel(abs(tan["lhs_T"] - along[0] - along[1]), bt, tan["lhs_T"], *along)
    return rel


@settings(max_examples=20, deadline=None, derandomize=True)
@given(r=st.floats(0.1, 0.4), a=st.floats(-0.5, 0.5), b=st.floats(-0.5, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_drawn_circles_on_stereographic_pair(r, a, b, seed):
    rel = _every_identity(stereographic_pair(), *_circle_grid(r, a, b), seed)
    assert max(rel.values()) <= 1e-12, rel


def _loxodrome_grid(alpha, u0, v0):
    """The loxodrome at angle ``alpha`` to the meridians through (u0, v0) on
    the radius-2 sphere of :func:`inversion_sphere_pair`, v = v0 + s cos(alpha)/2,
    u = u0 + tan(alpha) (log tan(v/2) - log tan(v0/2)), with unit speed, and
    16 points along it while 0.15 < u < 1.95 and v <= 2.4."""
    ta, ca, lt0 = math.tan(alpha), math.cos(alpha), math.log(math.tan(v0 / 2.0))
    v = f"({v0!r}+{ca / 2.0!r}*s)"
    curve = ParamCurve(e1(f"{u0!r}+{ta!r}*(log(tan({v}/2))-{lt0!r})"), e1(v))
    room = 1.95 - u0 if alpha > 0.0 else u0 - 0.15
    v_end = min(2.4, 2.0 * math.atan(math.tan(v0 / 2.0) * math.exp(room / abs(ta))))
    return curve, np.linspace(0.0, 2.0 * (v_end - v0) / ca, 16, endpoint=False)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(alpha=st.floats(0.3, 1.2), sign=st.sampled_from((1.0, -1.0)), u0=st.floats(0.6, 1.4),
       v0=st.floats(0.6, 1.2), seed=st.integers(0, 2**32 - 1))
def test_drawn_loxodromes_on_inversion_pair(alpha, sign, u0, v0, seed):
    # zeta = 1/(13 + 12 cos v) varies along a loxodrome (on a latitude it is
    # constant, and Theta, r_T and the invariance identity vanish)
    pair, (curve, s) = inversion_sphere_pair(), _loxodrome_grid(sign * alpha, u0, v0)
    rel = _every_identity(pair, curve, s, seed)
    assert max(rel.values()) <= 1e-12, rel
    assert np.min(abs(beltrami_bracket_shift(pair, curve, s).theta_bracket)) > 1e-2


@settings(max_examples=20, deadline=None, derandomize=True)
@given(r=st.floats(0.1, 0.4), a=st.floats(-0.5, 0.5), b=st.floats(-0.5, 0.5))
def test_drawn_circles_on_flat_exp_pair(r, a, b):
    rel = _bracket_and_geodesic(flat_exp_pair(), *_circle_grid(r, a, b))[0]
    assert max(rel.values()) <= 1e-12, rel


def test_printed_forms_miss_on_the_offset_circle():
    # zeta varies along this circle on both pairs: the printed Theorem 3
    # forms and every geodesic weight pairing miss there, so the gap between
    # them and the exact forms stays documented
    curve = ParamCurve(e1("0.3+0.5*cos(2*s)"), e1("0.5*sin(2*s)"))
    s = np.linspace(0.05, math.pi - 0.05, 16)
    rep = theorem3_report(stereographic_pair(), curve, NU_GENERIC, ETA_GENERIC, s)
    assert min(np.max(rep["as_printed"]), np.max(rep["zeta4_on_h"])) > 1e-3
    for pair in (stereographic_pair(), flat_exp_pair()):
        dev = geodesic_deviation_report(pair, curve, s)
        assert min(np.max(dev.i20_residuals[k]) for k in PAIRINGS) > 1e-3
