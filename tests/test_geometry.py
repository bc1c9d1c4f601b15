import math
import re

import numpy as np
import pytest

from confgeo import geometry
from confgeo.calculus import reparameterize_arclength
from confgeo.exprkit import Expr, ExprError, parse_scalar_field, substitute, walk_store
from confgeo.geometry import (
    AbstractMetric,
    GeometryError,
    ParamCurve,
    SurfacePatch,
    beltrami_bracket,
    christoffel,
    cross,
    first_fundamental,
    frenet,
    metric_derivative_identities,
    second_fundamental,
)
from conftest import (
    PLANE_BOX,
    catenoid,
    circle_curve,
    cylinder,
    e1,
    e2,
    equator_curve,
    flat_metric,
    helix_curve,
    latitude_curve,
    line_curve,
    plane,
    sphere,
)
from oracles import fd_partial, geodesic_curvature, normal_curvature

RNG = np.random.default_rng(20240811)


def _fd_patch_vector(patch, u, v, index):
    """Finite-difference derivative of the patch position (oracle route)."""
    return np.array([fd_partial(c, (u, v), index) for c in (patch.x, patch.y, patch.z)])


# -- first fundamental form ---------------------------------------------------


def test_first_form_plane():
    m = plane().first_form(0.3, -1.2)
    assert (m.E, m.F, m.G, m.W) == (1.0, 0.0, 1.0, 1.0)
    assert (m.E_u, m.E_v, m.F_u, m.F_v, m.G_u, m.G_v) == (0.0,) * 6


def test_first_form_sphere_against_fd_oracle():
    sph = sphere()
    u, v = 1.0, math.pi / 4
    m = sph.first_form(u, v)
    assert m.E == pytest.approx(0.5, abs=1e-12)          # E = sin^2 v
    assert m.F == pytest.approx(0.0, abs=1e-12)
    assert m.G == pytest.approx(1.0, abs=1e-12)
    assert m.E_v == pytest.approx(1.0, abs=1e-12)        # sin 2v at pi/4
    assert m.W == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    pu = _fd_patch_vector(sph, u, v, (1, 0))
    pv = _fd_patch_vector(sph, u, v, (0, 1))
    assert float(pu @ pu) == pytest.approx(m.E, abs=1e-9)
    assert float(pu @ pv) == pytest.approx(m.F, abs=1e-9)
    assert float(pv @ pv) == pytest.approx(m.G, abs=1e-9)


def test_first_form_degenerate_patch():
    degenerate = SurfacePatch(e2("u"), e2("u"), e2("0"), PLANE_BOX)
    with pytest.raises(GeometryError, match=r"^degenerate first form at \(0\.1, 0\.2\): "):
        degenerate.first_form(0.1, 0.2)


# E, F, G -> the first grid point of (U_BAD, V_BAD) where the metric fails
@pytest.mark.parametrize("efg, first_bad", [
    (("-1", "0", "-1"), "(0.3, 0.2)"),   # EG - F^2 = 1 > 0 but E < 0
    (("1", "1", "1"), "(0.3, 0.2)"),     # EG - F^2 = 0
    (("u", "0", "1"), "(-0.1, 0.6)"),    # E changes sign on the grid
])
def test_metric_first_form_checks_name_the_first_failing_point(efg, first_bad):
    metric = AbstractMetric(*(e2(t) for t in efg), PLANE_BOX)
    u, v = np.array([0.3, 0.1, -0.1, -0.3]), np.array([0.2, 0.4, 0.6, 0.8])
    with pytest.raises(GeometryError, match=re.escape(f"at {first_bad}:")):
        metric.first_form(u, v)


def test_point_outside_domain_rejected():
    with pytest.raises(GeometryError, match="outside domain"):
        plane().first_form(99.0, 0.0)


@pytest.mark.parametrize("v, error, message", [
    (np.full((2, 2), 0.5), GeometryError,
     "point (5.0, 0.5) outside domain box ((0.1, 1.2), (0.2, 1.0))"),
    (0.5, ExprError, "eval_jet2 needs grid arrays of one shape, got [(2, 2), ()]"),
], ids=["grid", "float"])
def test_a_2d_grid_names_its_point_outside_the_domain(v, error, message):
    # the box check runs before the walk and refuses what the walk refuses,
    # so a float v beside the 2-D u is refused as a grid of mixed shapes
    u = np.array([[0.2, 0.3], [0.4, 5.0]])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        catenoid().jets(u, v, 2)


@pytest.mark.parametrize("walk", [lambda u, v: catenoid().jets(u, v, 2),
                                  lambda u, v: flat_metric().first_form(u, v)],
                         ids=["patch", "metric"])
def test_the_box_check_refuses_grid_arrays_of_mixed_shapes(walk):
    # shapes numpy cannot broadcast get the walk's error, not numpy's
    with pytest.raises(ExprError, match=re.escape(
            "eval_jet2 needs grid arrays of one shape, got [(2,), (3,)]")):
        walk(np.full(2, 0.5), np.full(3, 0.5))


# -- second fundamental form ---------------------------------------------------


def test_second_form_plane_is_zero():
    sf = second_fundamental(plane().jets(0.7, 0.9, 2), 0.7, 0.9)
    assert (sf.L, sf.M, sf.N) == (0.0, 0.0, 0.0)
    assert np.allclose(sf.n_vec, [0.0, 0.0, 1.0])


def test_second_form_sphere_with_fd_oracle():
    # with the Psi_u x Psi_v orientation the unit-sphere normal points inward,
    # so L and N are +1 at (1, pi/2)
    sph = sphere()
    u, v = 1.0, math.pi / 2
    sf = second_fundamental(sph.jets(u, v, 2), u, v)
    assert abs(sf.L) == pytest.approx(1.0, abs=1e-12)
    assert sf.M == pytest.approx(0.0, abs=1e-12)
    assert abs(sf.N) == pytest.approx(1.0, abs=1e-12)
    assert sf.L == pytest.approx(1.0, abs=1e-12)
    assert sf.N == pytest.approx(1.0, abs=1e-12)
    for idx, want in (((2, 0), sf.L), ((1, 1), sf.M), ((0, 2), sf.N)):
        oracle = float(_fd_patch_vector(sph, u, v, idx) @ sf.n_vec)
        assert oracle == pytest.approx(want, abs=1e-7)


def test_second_form_cylinder_with_fd_oracle():
    cyl = cylinder()
    sf = second_fundamental(cyl.jets(0.0, 0.0, 2), 0.0, 0.0)
    assert abs(sf.L) == pytest.approx(1.0, abs=1e-12)
    assert sf.L == pytest.approx(-1.0, abs=1e-12)   # outward normal on (cos u, sin u, v)
    assert sf.M == pytest.approx(0.0, abs=1e-12)
    assert sf.N == pytest.approx(0.0, abs=1e-12)
    oracle = float(_fd_patch_vector(cyl, 0.0, 0.0, (2, 0)) @ sf.n_vec)
    assert oracle == pytest.approx(sf.L, abs=1e-7)


def test_unit_normal_has_unit_length():
    for patch in (sphere(), catenoid(), cylinder()):
        (u0, u1), (v0, v1) = patch.domain
        for _ in range(25):
            u = RNG.uniform(u0 + 0.05, u1 - 0.05)
            v = RNG.uniform(v0 + 0.05, v1 - 0.05)
            sf = second_fundamental(patch.jets(u, v, 2), u, v)
            assert abs(np.linalg.norm(sf.n_vec) - 1.0) < 1e-12


# -- Christoffel symbols --------------------------------------------------------


def _fd_first_form(patch, u, v, h=1e-5):
    """FirstForm with metric partials taken by finite differences (oracle)."""
    from confgeo.geometry import FirstForm

    def coeff(name, uu, vv):
        m = patch.first_form(uu, vv)
        return getattr(m, name)

    m0 = patch.first_form(u, v)
    part = {}
    for name in ("E", "F", "G"):
        part[name + "_u"] = (coeff(name, u + h, v) - coeff(name, u - h, v)) / (2 * h)
        part[name + "_v"] = (coeff(name, u, v + h) - coeff(name, u, v - h)) / (2 * h)
    return FirstForm(m0.E, m0.F, m0.G, m0.W, part["E_u"], part["E_v"],
                     part["F_u"], part["F_v"], part["G_u"], part["G_v"])


def test_christoffel_plane_all_zero():
    g = christoffel(plane().first_form(0.4, 0.8))
    assert (g.g111, g.g112, g.g121, g.g122, g.g221, g.g222) == (0.0,) * 6


def test_christoffel_sphere_against_fd_substitution():
    # metric E = sin^2 v, F = 0, G = 1 at v = pi/4: Gamma^1_12 = cot v = 1,
    # Gamma^2_11 = -sin v cos v = -1/2, all others 0
    sph = sphere()
    g = christoffel(sph.first_form(1.0, math.pi / 4))
    assert g.g121 == pytest.approx(1.0, abs=1e-12)
    assert g.g112 == pytest.approx(-0.5, abs=1e-12)
    for slot in ("g111", "g122", "g221", "g222"):
        assert getattr(g, slot) == pytest.approx(0.0, abs=1e-12)
    g_fd = christoffel(_fd_first_form(sph, 1.0, math.pi / 4))
    for slot in ("g111", "g112", "g121", "g122", "g221", "g222"):
        assert getattr(g_fd, slot) == pytest.approx(getattr(g, slot), abs=1e-8)


def test_christoffel_conformally_flat_metric():
    # E = G = e^{2u}, F = 0 at u = 0: direct evaluation with E_u = G_u = 2
    metric = AbstractMetric(e2("exp(2*u)"), e2("0"), e2("exp(2*u)"), PLANE_BOX)
    g = christoffel(metric.first_form(0.0, 0.0))
    assert g.g111 == pytest.approx(1.0, abs=1e-14)
    assert g.g122 == pytest.approx(1.0, abs=1e-14)
    assert g.g221 == pytest.approx(-1.0, abs=1e-14)
    for slot in ("g112", "g121", "g222"):
        assert getattr(g, slot) == pytest.approx(0.0, abs=1e-14)


def test_a_first_form_of_mixed_shapes_is_refused_and_not_kept():
    # a (4,) u beside a 0-d v is no grid: the walk refuses it, in a store
    # on every call, and the store keeps nothing
    metric = AbstractMetric(e2("v"), e2("0"), e2("1"), PLANE_BOX)
    u, v = np.linspace(-0.5, 0.5, 4), np.array(0.5)
    with walk_store({}) as store:
        for _ in range(2):
            with pytest.raises(ExprError, match=re.escape(
                    "eval_jet2 needs grid arrays of one shape, got [(4,), ()]")):
                metric.first_form(u, v)
        assert not store


def test_christoffel_same_code_path_for_patch_and_metric():
    sph = sphere()
    u, v = 0.8, 1.1
    from_patch = sph.first_form(u, v)
    metric = AbstractMetric(e2("sin(v)^2"), e2("0"), e2("1"), sph.domain)
    from_metric = metric.first_form(u, v)
    # same FirstForm -> identical output object fields
    assert christoffel(from_patch) == christoffel(from_patch)
    ga, gb = christoffel(from_patch), christoffel(from_metric)
    for slot in ("g111", "g112", "g121", "g122", "g221", "g222"):
        assert getattr(ga, slot) == pytest.approx(getattr(gb, slot), abs=1e-12)


# -- Frenet frames ----------------------------------------------------------------


def test_frenet_equator():
    fr = frenet(sphere(), equator_curve(), 0.7)
    assert fr.kappa == pytest.approx(1.0, abs=1e-12)
    assert fr.tau == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(fr.n, [-math.cos(0.7), -math.sin(0.7), 0.0], atol=1e-12)
    assert np.allclose(fr.b, [0.0, 0.0, 1.0], atol=1e-12)


def test_frenet_straight_line_degenerates():
    fr = frenet(plane(), line_curve(), 0.5)
    assert fr.kappa <= 1e-9
    # undefined, as at such points of a grid
    assert np.isnan(fr.n).all() and np.isnan(fr.b).all() and np.isnan(fr.tau)


def test_frenet_latitude_against_fd_oracle():
    # circle of radius sin(pi/4): kappa = sqrt(2), tau = 0
    sph = sphere()
    lat = latitude_curve()
    s = 0.45
    fr = frenet(sph, lat, s)
    assert fr.kappa == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert fr.tau == pytest.approx(0.0, abs=1e-12)
    comps = [substitute(c, {"u": lat.u, "v": lat.v}) for c in (sph.x, sph.y, sph.z)]
    beta2 = np.array([fd_partial(c, (s,), (2,), step=1e-4) for c in comps])
    assert np.linalg.norm(beta2) == pytest.approx(fr.kappa, abs=1e-6)
    with walk_store({}):  # the torsion in a store has the bits it has outside one
        assert frenet(sph, lat, s).tau.tobytes() == fr.tau.tobytes()


def test_frenet_composes_the_patch_and_curve_on_every_call(monkeypatch):
    # the torsion's composed components are a plain call: made again on each
    # frenet call, in a store as outside one, and never kept in the store
    made, compose = [], geometry.substitute
    monkeypatch.setattr(geometry, "substitute", lambda e, m: made.append(e) or compose(e, m))
    sph, lat = sphere(), latitude_curve()
    plain = frenet(sph, lat, 0.4).tau
    with walk_store({}) as store:
        taus = [frenet(sph, lat, 0.4).tau for _ in range(2)]
        assert all(not isinstance(v, tuple) or not any(isinstance(x, Expr) for x in v)
                   for v in store.values())
    assert made == [sph.x, sph.y, sph.z] * 3
    assert taus[0].tobytes() == taus[1].tobytes() == plain.tobytes()


def test_frenet_helix_torsion():
    # helix (cos(s/r2), sin(s/r2), s/r2) has kappa = tau = 1/2
    fr = frenet(cylinder(), helix_curve(), 0.4)
    assert fr.kappa == pytest.approx(0.5, abs=1e-12)
    assert fr.tau == pytest.approx(0.5, abs=1e-12)


def test_frenet_rejects_non_unit_speed():
    fast = ParamCurve(e1("2*s"), e1("0"))
    with pytest.raises(GeometryError, match=re.escape("not unit speed at s=0.3: |beta'| = 2.0")):
        frenet(plane(), fast, 0.3)


def test_frenet_table_curve_torsion_signal():
    cat = catenoid()
    raw = (parse_scalar_field("t", ("t",)), parse_scalar_field("0.6", ("t",)))
    c = reparameterize_arclength(cat, raw, 0.12, 1.15, 24)
    fr = frenet(cat, c, 0.5)            # order-2 jets: tau stays None
    assert fr.tau is None and fr.kappa > 0


def test_frame_orthonormality_property():
    cases = [
        (sphere(), equator_curve(), (0.1, 6.1)),
        (sphere(), latitude_curve(), (0.1, 4.0)),
        (cylinder(), helix_curve(), (-3.0, 3.0)),
        (plane(), circle_curve(), (0.0, 6.2)),
    ]
    for patch, curve, (lo, hi) in cases:
        for s in RNG.uniform(lo, hi, 25):
            fr = frenet(patch, curve, float(s))
            assert abs(float(fr.t @ fr.n)) < 1e-9
            assert abs(float(fr.t @ fr.b)) < 1e-9
            assert abs(float(fr.n @ fr.b)) < 1e-9
            assert np.linalg.norm(fr.b - np.cross(fr.t, fr.n)) < 1e-9


# -- curvatures ---------------------------------------------------------------------


def test_normal_curvature_line_on_plane():
    assert normal_curvature(plane(), line_curve(), 0.2) == 0.0


def test_normal_curvature_equator_oracle_sign():
    # oracle: beta''.N_vec; inward unit normal makes this +1 on the unit sphere
    sph = sphere()
    eq = equator_curve()
    s = 0.9
    kn = normal_curvature(sph, eq, s)
    fr = frenet(sph, eq, s)
    cj = eq.jets(s)
    sf = second_fundamental(sph.jets(cj.u, cj.v, 2), cj.u, cj.v)
    oracle = float((fr.kappa * fr.n) @ sf.n_vec)
    assert kn == pytest.approx(oracle, abs=1e-12)
    assert kn == pytest.approx(1.0, abs=1e-12)


def test_normal_curvature_ruling_on_cylinder():
    swapped = SurfacePatch(e2("cos(v)"), e2("sin(v)"), e2("u"), ((-9, 9), (-9, 9)))
    ruling = ParamCurve(e1("s"), e1("1.1"))
    assert normal_curvature(swapped, ruling, 0.4) == pytest.approx(0.0, abs=1e-12)


def test_geodesic_curvature_equator_both_weights():
    for weight in ("W1", "W2"):
        assert geodesic_curvature(sphere(), equator_curve(), 1.2, weight) == \
            pytest.approx(0.0, abs=1e-12)


def test_geodesic_curvature_latitude_pythagoras_oracle():
    # kappa^2 = kappa_n^2 + kappa_g^2 with kappa = sqrt(2), kappa_n = 1
    sph = sphere()
    lat = latitude_curve()
    kg = geodesic_curvature(sph, lat, 0.8, "W1")
    assert abs(kg) == pytest.approx(1.0, abs=1e-12)
    kn = normal_curvature(sph, lat, 0.8)
    kappa = frenet(sph, lat, 0.8).kappa
    assert kappa ** 2 == pytest.approx(kn ** 2 + kg ** 2, rel=1e-12)


def test_geodesic_curvature_line_on_plane():
    for weight in ("W1", "W2"):
        assert geodesic_curvature(plane(), line_curve(), 0.4, weight) == 0.0


def test_geodesic_curvature_weight_flag_mandatory():
    with pytest.raises(ValueError, match="W1"):
        geodesic_curvature(plane(), line_curve(), 0.4, "w1")


def test_pythagoras_of_curvatures_property():
    cat = catenoid()
    waist = reparameterize_arclength(
        cat, (parse_scalar_field("t", ("t",)), parse_scalar_field("0.6", ("t",))),
        0.12, 1.15, 24)
    cases = [
        (sphere(), equator_curve(), (0.1, 6.1)),
        (sphere(), latitude_curve(), (0.1, 4.0)),
        (plane(), circle_curve(), (0.0, 6.2)),
        (plane(), circle_curve(0.5, 1.0, -2.0), (0.0, 3.1)),
        (cylinder(), helix_curve(), (-3.0, 3.0)),
        (cat, waist, (0.05, waist.length - 0.05)),
    ]
    for patch, curve, (lo, hi) in cases:
        for s in RNG.uniform(lo, hi, 20):
            s = float(s)
            kappa = frenet(patch, curve, s, with_torsion=False).kappa
            if kappa <= 1e-6:
                continue
            kn = normal_curvature(patch, curve, s)
            kg = geodesic_curvature(patch, curve, s, "W1")
            assert abs(kappa ** 2 - kn ** 2 - kg ** 2) / max(1.0, kappa ** 2) < 1e-8


# -- metric derivative identities -----------------------------------------------------


def _metric_identities(patch, u, v):
    return metric_derivative_identities(patch, u, v, patch.jets(u, v, 2))


def test_metric_identities_plane_exact():
    assert _metric_identities(plane(), 0.7, -0.3).tolist() == [0.0] * 6


def test_metric_identities_sphere():
    assert max(_metric_identities(sphere(), 1.0, math.pi / 4)) < 1e-9


def test_metric_identities_catenoid():
    assert max(_metric_identities(catenoid(), 0.3, 0.5)) < 1e-9


def test_lagrange_identity_property():
    for patch in (plane(), sphere(), catenoid(), cylinder()):
        (u0, u1), (v0, v1) = patch.domain
        for _ in range(25):
            u = float(RNG.uniform(u0 + 0.05, u1 - 0.05))
            v = float(RNG.uniform(v0 + 0.05, v1 - 0.05))
            pj = patch.jets(u, v, 2)
            m = first_fundamental(pj, u, v)
            cr = np.cross(pj.pu, pj.pv)
            disc = m.E * m.G - m.F * m.F
            assert abs(float(cr @ cr) - disc) / max(1.0, abs(disc)) < 1e-10


def test_beltrami_bracket_matches_geodesic_curvature():
    sph = sphere()
    lat = latitude_curve()
    s = 0.6
    cj = lat.jets(s)
    m = sph.first_form(cj.u, cj.v)
    bracket = beltrami_bracket(christoffel(m), cj)
    assert bracket * m.W == pytest.approx(geodesic_curvature(sph, lat, s, "W1"), rel=1e-12)
    assert bracket * m.W ** 2 == pytest.approx(geodesic_curvature(sph, lat, s, "W2"), rel=1e-12)


def test_cross_has_the_bits_of_np_cross():
    rng = np.random.default_rng(11)
    # magnitudes up to 1e+-300: some products overflow or underflow
    a, b = (rng.standard_normal((3, 2000)) * 10.0 ** rng.integers(-300, 301, (3, 2000))
            for _ in range(2))
    with np.errstate(all="ignore"):
        for x, y in ((a, b), (a[:, 7], b[:, 7]), (a[:, :1], b[:, :1])):
            got, want = cross(x, y), np.cross(x, y, axis=0)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
