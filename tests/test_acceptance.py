"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the console.
"""

import math

import numpy as np
import pytest

from confgeo.calculus import reparameterize_arclength
from confgeo.conformal import (
    beltrami_bracket_shift,
    christoffel_shift_residual,
    dilation_field,
    dilation_jet,
    geodesic_deviation_report,
    image_geodesic_curvature,
    pushforward_residual,
    theta_terms,
)
from confgeo.exprkit import parse_scalar_field
from confgeo.geometry import (
    christoffel,
    frenet,
    metric_derivative_identities,
)
from confgeo.normalcurve import (
    classify_curve,
    tangential_report,
    theorem3_report,
)
from conftest import (
    catenoid,
    catenoid_helicoid_pair,
    circle_curve,
    cylinder,
    diag_line,
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
    scaling_ambient_pair,
    sphere,
    sphere_homothety_pair,
    stereographic_pair,
)
from oracles import (
    fd_partial,
    geodesic_curvature,
    normal_component_identity_residual,
    normal_curvature,
)

RNG = np.random.default_rng(8020)


def report(num: int, label: str, worst: float, tol: float) -> None:
    ok = worst < tol
    print(f"ACCEPTANCE C{num:02d} {'PASS' if ok else 'FAIL'}: {label} "
          f"(max residual {worst:.3e}, tolerance {tol:.1e})", flush=True)
    assert ok, f"criterion {num}: {worst} >= {tol}"


def report_bool(num: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE C{num:02d} {'PASS' if ok else 'FAIL'}: {label}", flush=True)
    assert ok, f"criterion {num}: {label}"


def grid8(box):
    (u0, u1), (v0, v1) = box
    us = np.linspace(u0 + 0.06 * (u1 - u0), u1 - 0.06 * (u1 - u0), 8)
    vs = np.linspace(v0 + 0.06 * (v1 - v0), v1 - 0.06 * (v1 - v0), 8)
    return [(float(u), float(v)) for u in us for v in vs]


def _waist_curve():
    cat = catenoid()
    raw = (parse_scalar_field("t", ("t",)), parse_scalar_field("0.6", ("t",)))
    return cat, reparameterize_arclength(cat, raw, 0.12, 1.15, 24)


def _rand_poly(rng):
    a, b, c = (round(float(x), 4) for x in rng.uniform(-1.5, 1.5, 3))
    return e1(f"{a!r} + {b!r}*s + {c!r}*s^2")


def test_criterion_01_christoffel_shift_identity():
    fixtures = [
        ("abstract flat vs e^2u", flat_exp_pair()),
        ("plane vs inverse-stereographic", stereographic_pair()),
        ("sphere vs 3-sphere", sphere_homothety_pair()),
    ]
    worst = 0.0
    for _, pair in fixtures:
        for (u, v) in grid8(pair.source.domain):
            worst = max(worst, max(christoffel_shift_residual(pair, u, v)))
    report(1, "Christoffel shift Gamma~ = Gamma + theta on three conformal pairs",
           worst, 1e-7)


def test_criterion_02_isometry_invariance():
    pair = catenoid_helicoid_pair()
    worst_gamma = 0.0
    thetas_all_zero = True
    for (u, v) in grid8(pair.source.domain):
        th = theta_terms(pair.source.first_form(u, v),
                         dilation_jet(pair, u, v, *pair.forms(u, v))[1])
        thetas_all_zero &= (th.g111, th.g112, th.g121, th.g122, th.g221, th.g222) \
            == (0.0,) * 6
        g = christoffel(pair.source.first_form(u, v))
        gt = christoffel(pair.target.first_form(u, v))
        worst_gamma = max(worst_gamma, max(
            abs(getattr(gt, k) - getattr(g, k))
            for k in ("g111", "g112", "g121", "g122", "g221", "g222")))
    report_bool(2, "isometry: all theta terms exactly zero on catenoid/helicoid",
                thetas_all_zero)
    report(2, "isometry: Christoffel symbols invariant on catenoid/helicoid",
           worst_gamma, 1e-8)


def test_criterion_03_beltrami_bracket_shift_and_i20_table():
    fixtures = [
        (flat_exp_pair(), diag_line(0.4), np.linspace(-0.7, 0.7, 10)),
        (stereographic_pair(), diag_line(0.3), np.linspace(-0.8, 0.8, 10)),
        (sphere_homothety_pair(), latitude_curve(), np.linspace(0.2, 3.8, 10)),
    ]
    worst = 0.0
    for pair, curve, grid in fixtures:
        for s in grid:
            worst = max(worst, beltrami_bracket_shift(pair, curve, float(s)).residual)
    report(3, "bracket shift B_tgt - B_src = Theta on 10 s-points per fixture",
           worst, 1e-8)

    # full i20 table with the brute-force image-curvature oracle pinning
    for pair, curve, grid in [
        (stereographic_pair(), line_curve(), np.linspace(-0.8, 0.8, 10)),
        (sphere_homothety_pair(), latitude_curve(), np.linspace(0.2, 3.8, 10)),
    ]:
        reports = [geodesic_deviation_report(pair, curve, float(s)) for s in grid]
        oracles = [image_geodesic_curvature(pair, curve, float(s)) for s in grid]
        dist = {w: sum(abs(r.kappa_g_tgt[w] - o) for r, o in zip(reports, oracles))
                for w in ("W1", "W2")}
        wt = min(("W1", "W2"), key=lambda w: (dist[w], w))
        ws = min(("W1", "W2"),
                 key=lambda w: (max(r.i20_residuals[f"{wt}/{w}"] for r in reports), w))
        for r in reports:
            assert set(r.i20_residuals) == {"W1/W1", "W1/W2", "W2/W1", "W2/W2"}
        pinned_worst = max(r.i20_residuals[f"{wt}/{ws}"] for r in reports)
        report(3, f"i20 residual of the oracle-pinned pairing {wt}/{ws}",
               pinned_worst, 1e-6)


def test_criterion_04_normal_component_expansion():
    cat, waist = _waist_curve()
    fixtures = [
        (sphere(), equator_curve(), (0.1, 6.1)),
        (sphere(), latitude_curve(), (0.1, 4.0)),
        (plane(), offset_circle_curve(), (0.0, 6.2)),
        (cylinder(), helix_curve(), (-3.0, 3.0)),
        (cat, waist, (0.05, waist.length - 0.05)),
    ]
    rng = np.random.default_rng(404)
    worst = 0.0
    for patch, curve, (lo, hi) in fixtures:
        nu, eta = _rand_poly(rng), _rand_poly(rng)
        for s in rng.uniform(lo, hi, 20):
            worst = max(worst, normal_component_identity_residual(
                patch, curve, nu, eta, float(s)))
    report(4, "normal-component expansion beta.N vs closed form, random profiles",
           worst, 1e-8)


def test_criterion_05_theorem3_isometry_and_homothety():
    nu, eta = e1("1+0.5*s"), e1("0.5*s^2-0.25")
    worst_iso = 0.0
    for s in np.linspace(0.2, 3.8, 10):
        rep = theorem3_report(identity_pair(sphere()), latitude_curve(), nu, eta, float(s))
        worst_iso = max(worst_iso, rep["as_printed"])
    report(5, "isometry corollary: beta~.N~ - beta.N = (nu/kappa)(kn~ - kn)",
           worst_iso, 1e-9)

    worst_hom = 0.0
    pair = sphere_homothety_pair()
    for s in np.linspace(0.2, 3.8, 10):
        rep = theorem3_report(pair, latitude_curve(), nu, e1("0"), float(s))
        assert rep["h"] == 0.0
        worst_hom = max(worst_hom, rep["as_printed"])
    report(5, "homothety corollary on the sphere/3-sphere latitude fixture",
           worst_hom, 1e-8)


def test_criterion_06_tangential_identities():
    nu, eta = e1("1+0.5*s"), e1("0.5*s^2-0.25")
    pair = stereographic_pair()
    worst = 0.0
    for s in np.linspace(0.1, 6.1, 10):
        rep = tangential_report(pair, circle_curve(), nu, eta, float(s))
        worst = max(worst, rep["r_u"], rep["r_v"], rep["r_T"])
    report(6, "tangential identities r_u, r_v, r_T on the stereographic fixture",
           worst, 1e-6)

    worst_hom = 0.0
    hom = sphere_homothety_pair()
    for s in np.linspace(0.2, 3.8, 10):
        rep = tangential_report(hom, latitude_curve(), e1("0"), eta, float(s))
        worst_hom = max(worst_hom, rep["r_T"], abs(rep["lhs_T"]), abs(rep["rhs_T"]))
    report(6, "homothetic invariance of the tangential component with nu = 0",
           worst_hom, 1e-8)


def test_criterion_07_metric_derivative_identities():
    worst = 0.0
    for patch in (plane(), sphere(), catenoid()):
        (u0, u1), (v0, v1) = patch.domain
        for _ in range(25):
            u = float(RNG.uniform(u0 + 0.05 * (u1 - u0), u1 - 0.05 * (u1 - u0)))
            v = float(RNG.uniform(v0 + 0.05 * (v1 - v0), v1 - 0.05 * (v1 - v0)))
            worst = max(worst, max(metric_derivative_identities(patch, u, v,
                                                                patch.jets(u, v, 2))))
    report(7, "metric-derivative identities on plane, sphere, catenoid", worst, 1e-9)


def test_criterion_08_geometry_sanity():
    cat, waist = _waist_curve()
    fixtures = [
        (sphere(), equator_curve(), (0.1, 6.1)),
        (sphere(), latitude_curve(), (0.1, 4.0)),
        (plane(), circle_curve(), (0.0, 6.2)),
        (plane(), offset_circle_curve(), (0.0, 6.2)),
        (cylinder(), helix_curve(), (-3.0, 3.0)),
        (cat, waist, (0.05, waist.length - 0.05)),
    ]
    worst_pyth = 0.0
    for patch, curve, (lo, hi) in fixtures:
        for s in RNG.uniform(lo, hi, 15):
            s = float(s)
            kappa = frenet(patch, curve, s, with_torsion=False).kappa
            if kappa <= 1e-6:
                continue
            kn = normal_curvature(patch, curve, s)
            kg = geodesic_curvature(patch, curve, s, "W1")
            worst_pyth = max(worst_pyth,
                             abs(kappa ** 2 - kn ** 2 - kg ** 2) / max(1.0, kappa ** 2))
    report(8, "kappa^2 = kappa_n^2 + kappa_g^2 (weight W1) on all curve fixtures",
           worst_pyth, 1e-8)

    worst_lat = max(abs(abs(geodesic_curvature(sphere(), latitude_curve(), float(s), "W1"))
                        - 1.0)
                    for s in np.linspace(0.2, 3.8, 10))
    report(8, "latitude circle |kappa_g| = cot(pi/4) = 1", worst_lat, 1e-7)

    pair = stereographic_pair()
    worst_zeta, worst_fd = 0.0, 0.0
    for _ in range(25):
        u, v = (float(x) for x in RNG.uniform(-0.9, 0.9, 2))
        zeta = dilation_field(pair, u, v, *pair.forms(u, v))
        worst_zeta = max(worst_zeta, abs(zeta - 2.0 / (1.0 + u * u + v * v)))
        tgt = pair.target
        pu = np.array([fd_partial(c, (u, v), (1, 0)) for c in (tgt.x, tgt.y, tgt.z)])
        worst_fd = max(worst_fd, abs(math.sqrt(float(pu @ pu)) - zeta))
    report(8, "stereographic dilation matches 2/(1+u^2+v^2)", worst_zeta, 1e-9)
    report(8, "dilation agrees with the finite-difference image metric", worst_fd, 1e-7)


def test_criterion_09_normal_curve_classification():
    verdict_eq = classify_curve(sphere(), equator_curve(),
                                tuple(np.linspace(0.1, 6.0, 64)))
    report_bool(9, f"equator on origin-centered sphere -> {verdict_eq.verdict}",
                verdict_eq.verdict == "normal")

    lifted = plane(z="1")
    verdict_off = classify_curve(lifted, offset_circle_curve(),
                                 tuple(np.linspace(0.1, 6.0, 64)))
    report_bool(9, f"offset circle -> {verdict_off.verdict}",
                verdict_off.verdict == "generic")

    grid = tuple(np.linspace(0.05, 3.0, 64))
    agree = True
    for k in range(20):
        if k % 3 == 0:
            cx = cy = 0.0
        else:
            cx, cy = (float(x) for x in RNG.uniform(-0.8, 0.8, 2))
        radius = float(RNG.uniform(0.6, 1.4))
        curve = circle_curve(radius, cx, cy)
        verdict = classify_curve(lifted, curve, grid)
        norms = [curve.jets(s).u ** 2 + curve.jets(s).v ** 2 + 1.0 for s in grid]
        agree &= ((max(norms) - min(norms) < 1e-7)
                  == (verdict.component_maxima["c_t"] < 1e-8))
    report_bool(9, "|beta|^2 constancy <=> normal classification, 20 perturbations",
                agree)


def test_criterion_10_pushforward_relation():
    worst = 0.0
    for pair in (inversion_sphere_pair(), scaling_ambient_pair()):
        (u0, u1), (v0, v1) = pair.source.domain
        us = np.linspace(u0 + 0.06 * (u1 - u0), u1 - 0.06 * (u1 - u0), 5)
        vs = np.linspace(v0 + 0.06 * (v1 - v0), v1 - 0.06 * (v1 - v0), 5)
        for u in us:
            for v in vs:
                worst = max(worst, *pushforward_residual(pair, float(u), float(v)))
    report(10, "pushforward relation on ambient inversion and scaling fixtures",
           worst, 1e-8)
