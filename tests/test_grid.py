"""Grids against points, and expression values against Python's own
arithmetic.

There is one numeric path: a point is a grid of one, so a point gets the
bits of its grid element, and the suites are compared with the per-point
functions bit for bit, apart from the cells listed in ``ROUNDED_APART``.
The independent reference is Python's float arithmetic and ``math``: numpy's
exp, log, tan, sinh, cosh, tanh and power may round differently from the C
library's by an ulp or two, so values agree with it to rounding wherever an
expression is well conditioned.  The expression generator keeps the
arguments of that group bounded (they see only sin or cos of a
sub-expression).
"""

import copy
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confgeo import calculus, cli, conformal, geometry, normalcurve
from confgeo.exprkit import (
    FUNCTIONS,
    EvalDomainError,
    eval_grad3,
    eval_jet2,
    eval_jet3,
    evaluate,
    parse_scalar_field,
    to_text,
)
from conftest import (
    STEREO_BOX,
    catenoid,
    catenoid_helicoid_pair,
    diag_line,
    e1,
    e2,
    e3,
    equator_curve,
    flat_exp_pair,
    helicoid,
    inversion_sphere_pair,
    latitude_curve,
    line_curve,
    offset_circle_curve,
    plane,
    sheared_stereographic_pair,
    sphere,
    sphere_homothety_pair,
    stereographic_pair,
    stereographic_target,
)
from test_cli import BASE_SCENARIO, write_scenario

AGREE = 1e-13

# Cells whose per-point reference rounds apart from the suite, compared
# within AGREE: the reference rows take BLAS ``@`` and ``np.linalg.norm``
# (r_lagrange, r_unit, r_tn), numpy's einsum of one point calls BLAS
# (pushforward r_v), and numpy's scalar ``**`` rounds apart from its array
# power (oracle_kg).  Every other cell is compared bit for bit.
ROUNDED_APART = {("forms", "r_lagrange"), ("pushforward", "r_v"), ("frenet", "r_unit"),
                 ("frenet", "r_tn"), ("geodesic-deviation", "oracle_kg")}


def _exprs(names, depth: int):
    leaf = st.one_of(
        st.sampled_from(names),
        st.floats(0.1, 2.5).map(lambda x: repr(round(x, 3))),
    )
    if depth == 0:
        return leaf
    sub = _exprs(names, depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: f"({t[1]}{t[0]}{t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "log", "sqrt", "-"]), sub)
        .map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["tan", "exp", "sinh", "cosh", "tanh"]),
                  st.sampled_from(["sin", "cos"]), sub)
        .map(lambda t: f"{t[0]}({t[1]}({t[2]}))"),
        st.tuples(sub, st.sampled_from(["2", "3", "-1", "0.5"])).map(lambda t: f"({t[0]})^({t[1]})"),
    )


def _fields(jet) -> list:
    return [getattr(jet, name) for name in jet.__slots__]


_MATH = {name: getattr(math, name) for name in FUNCTIONS}


def _python_value(e, point):
    """The value of ``e`` at ``point`` by Python's own float arithmetic and
    ``math``, or None where that fails or gives no finite float."""
    try:
        value = eval(to_text(e).replace("^", "**"), {"__builtins__": {}, **_MATH},
                     dict(zip(e.variables, point)))
    except (ArithmeticError, ValueError, TypeError):  # TypeError: math of a complex power
        return None
    return value if isinstance(value, float) and math.isfinite(value) else None


def _check_grid_matches_points(evaluate, text, names, points):
    """Evaluate at each point and once over the grid of all of them: the
    same bits or the same error, and at each point the value Python's own
    arithmetic gives, or an error where Python fails."""
    e = parse_scalar_field(text, names)
    per_point, first_error = [], None
    for point in zip(*(p.tolist() for p in points)):
        want = _python_value(e, point)
        try:
            fields = [float(x) for x in _fields(evaluate(e, *point))]
        except EvalDomainError as err:
            first_error = first_error or err
            continue
        assert want is not None, (text, point, fields[0])
        assert abs(fields[0] - want) <= AGREE * max(1.0, abs(want)), (text, point)
        per_point.append(fields)
    try:
        grid = evaluate(e, *points)
    except EvalDomainError as err:
        # the same node and the same first point as point by point
        assert first_error is not None
        assert (err.node_text, err.point, err.reason) == \
               (first_error.node_text, first_error.point, first_error.reason)
        return
    assert first_error is None
    assert np.array(_fields(grid)).T.tolist() == per_point, text


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=_exprs(["u", "v"], 3), seed=st.integers(0, 2**32 - 1))
def test_eval_jet2_grid_matches_points(text, seed):
    rng = np.random.default_rng(seed)
    _check_grid_matches_points(eval_jet2, text, ("u", "v"),
                               [rng.uniform(-2, 2, 8), rng.uniform(-2, 2, 8)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=_exprs(["x", "y", "z"], 3), seed=st.integers(0, 2**32 - 1))
def test_eval_grad3_grid_matches_points(text, seed):
    rng = np.random.default_rng(seed)
    _check_grid_matches_points(eval_grad3, text, ("x", "y", "z"),
                               [rng.uniform(-2, 2, 8) for _ in range(3)])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=_exprs(["s"], 3), seed=st.integers(0, 2**32 - 1))
def test_eval_jet3_grid_matches_points(text, seed):
    rng = np.random.default_rng(seed)
    _check_grid_matches_points(eval_jet3, text, ("s",), [rng.uniform(-2, 2, 8)])


def test_constant_expression_fills_the_grid():
    j = eval_jet2(e2("2*3"), np.zeros(4), np.ones(4))
    for f in _fields(j):
        assert isinstance(f, np.ndarray) and f.shape == (4,)
    assert j.value.tolist() == [6.0] * 4


# -- domain and overflow errors ----------------------------------------------------


def test_overflow_maps_to_domain_error_on_both_paths():
    e = e2("exp(40*u*v)")
    with pytest.raises(EvalDomainError) as scalar:
        eval_jet2(e, 30.0, 30.0)
    assert scalar.value.node_text == "exp(((40.0*u)*v))"
    assert scalar.value.point == (30.0, 30.0)
    with pytest.raises(EvalDomainError) as grid:
        eval_jet2(e, np.array([0.1, 30.0, 25.0]), np.array([0.1, 30.0, 25.0]))
    assert str(grid.value) == str(scalar.value)


def test_overflowing_first_form_is_a_math_error_on_both_paths():
    # exp(700) is finite, but E = 1 + exp(2u) is not
    hot = geometry.SurfacePatch(e2("u"), e2("v"), e2("exp(u)"), ((300.0, 709.0), (0.0, 1.0)))
    hot_metric = geometry.AbstractMetric(e2("exp(u)"), e2("0"), e2("exp(u)"), hot.domain)
    us, vs = np.array([300.0, 700.0, 705.0]), np.array([0.5, 0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for surface in (hot, hot_metric):
            for u, v in ((700.0, 0.5), (us, vs)):
                with pytest.raises(geometry.GeometryError,
                                   match=r"form is not finite at \(700\.0, 0\.5\)"):
                    surface.first_form(u, v)


def test_cli_overflowing_first_form_exits_with_math_error(tmp_path, capsys):
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["surfaces"] = [{"name": "hot", "kind": "patch", "x": "u", "y": "v",
                        "z": "exp(u)", "domain": [[690, 709], [0, 1]]}]
    doc["suites"] = [{"suite": "forms", "surface": "hot"}]
    doc["pairs"], doc["curves"], doc["profiles"] = [], [], []
    path = write_scenario(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    u0, v0 = (float(a[0]) for a in cli.surface_grid(((690.0, 709.0), (0.0, 1.0)), 4, None))
    assert f"first fundamental form is not finite at ({u0!r}, {v0!r})" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("evaluate_at, text, names, point", [
    (evaluate, "exp(300*u)*exp(300*u)", ("u", "v"), (1.2, 1.0)),
    (eval_jet2, "exp(300*u)*exp(300*u)", ("u", "v"), (1.2, 1.0)),
    (eval_jet3, "exp(300*s)*exp(300*s)", ("s",), (1.2,)),
    (eval_grad3, "exp(300*x)*exp(300*y)", ("x", "y", "z"), (1.2, 1.2, 0.0)),
], ids=["evaluate", "eval_jet2", "eval_jet3", "eval_grad3"])
def test_float_path_overflow_names_node_and_point_as_a_grid_does(evaluate_at, text, names,
                                                                   point):
    # a point is a grid of one: numpy raises on the overflowing product at both
    e = parse_scalar_field(text, names)
    with pytest.raises(EvalDomainError) as scalar:
        evaluate_at(e, *point)
    with pytest.raises(EvalDomainError) as grid:
        evaluate_at(e, *(np.array([x]) for x in point))
    # the product overflows, not its factors
    assert scalar.value.node_text == grid.value.node_text == to_text(e)
    assert scalar.value.point == grid.value.point == point
    assert str(scalar.value) == str(grid.value)


def test_overflowing_constant_subtree_is_a_domain_error():
    for at in ((0.5, 0.5), (np.array([0.5, 0.6]), np.array([0.5, 0.5]))):
        with pytest.raises(EvalDomainError, match=r"overflow in sub-expression '\(1e\+300"):
            eval_jet2(e2("1e300*1e300*u"), *at)
    with pytest.raises(EvalDomainError, match="overflow"):
        evaluate(e3("1e300*1e300*x"), 0.5, 0.5, 0.5)


def test_infinite_declared_dilation_is_refused():
    box = ((1.0, 2.0), (0.0, 1.0))
    with pytest.raises(EvalDomainError, match=r"overflow .* at \(1\.25, 0\.25\)"):
        conformal.ConformalPair(plane(box), plane(box), dilation=e2("exp(300*u)*exp(300*u)"))


def test_grid_domain_error_names_first_failing_point():
    e = e2("log(u)")
    with pytest.raises(EvalDomainError, match=r"log\(u\)' at \(-1\.0, 0\.5\)"):
        eval_jet2(e, np.array([1.0, -1.0, -2.0]), np.array([0.0, 0.5, 0.5]))


def test_cli_overflow_exits_with_math_error(tmp_path, capsys):
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["surfaces"] = [{"name": "hot", "kind": "patch", "x": "u", "y": "v",
                        "z": "exp(40*u*v)", "domain": [[20, 30], [20, 30]]}]
    doc["suites"] = [{"suite": "forms", "surface": "hot"}]
    doc["pairs"], doc["curves"], doc["profiles"] = [], [], []
    path = write_scenario(tmp_path, doc)
    assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "math error in suite 'forms' (surface='hot')" in err
    assert "overflow in sub-expression 'exp(((40.0*u)*v))'" in err
    u0, v0 = (float(a[0]) for a in cli.surface_grid(((20.0, 30.0), (20.0, 30.0)), 4, None))
    assert f"at ({u0!r}, {v0!r})" in err
    assert "Traceback" not in err


def test_non_conformal_grid_names_first_offending_point():
    # conformal exactly where u = 0: the G residual is u^4
    bent = geometry.SurfacePatch(e2("u"), e2("v"), e2("u^3/3"), STEREO_BOX)
    pair = conformal.ConformalPair(plane(STEREO_BOX), bent, conformality_tol=1e-3)
    us, vs = np.array([0.0, 0.0, 0.5, 0.7]), np.array([0.1, -0.2, 0.3, 0.4])
    with pytest.raises(conformal.NonConformalError) as grid:
        conformal.dilation_field(pair, us, vs)
    with pytest.raises(conformal.NonConformalError) as scalar:
        conformal.dilation_field(pair, 0.5, 0.3)
    assert str(grid.value) == str(scalar.value)
    assert "not conformal at (0.5, 0.3)" in str(grid.value)
    assert grid.value.residuals == scalar.value.residuals
    assert all(type(r) is float for r in grid.value.residuals)


def test_domain_box_names_first_outside_point():
    with pytest.raises(geometry.GeometryError, match=r"point \(5\.0, 0\.0\) outside"):
        catenoid().jets(np.array([0.5, 5.0, 6.0]), np.array([0.5, 0.0, 0.0]))


def test_cli_non_conformal_names_first_grid_point(tmp_path, capsys):
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["surfaces"].append({"name": "stretch", "kind": "patch",
                            "x": "u", "y": "2*v", "z": "0",
                            "domain": [[-1.5, 1.5], [-1.5, 1.5]]})
    doc["pairs"] = [{"name": "bad", "source": "plane", "target": "stretch"}]
    doc["suites"] = [{"suite": "christoffel-shift", "pair": "bad"}]
    path = write_scenario(tmp_path, doc)
    assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    u0, v0 = (float(a[0]) for a in cli.surface_grid(((-1.5, 1.5), (-1.5, 1.5)), 4, None))
    assert f"not conformal at ({u0!r}, {v0!r})" in err
    assert "np." not in err


# -- suites against the per-point functions ------------------------------------------

GRIDS = {"surface": 12, "curve": 4, "mode": "random"}


def _run_suite(entry, pool, tol):
    sc = cli.Scenario(path=Path("grid.json"), digest="", surfaces=pool, pairs=pool)
    tolerances = dict(cli.DEFAULT_TOLERANCES)
    if tol is not None:
        tolerances[entry["suite"]] = tol
    return cli.run_suite(sc, entry, GRIDS, tolerances, np.random.default_rng(3))


def _forms_row(surf, u, v):
    m = geometry.first_fundamental(surf, u, v)
    res = geometry.metric_derivative_identities(surf, u, v)
    pj = surf.jets(u, v)
    cr = np.cross(pj.pu, pj.pv)
    disc = m.E * m.G - m.F * m.F
    lagrange = abs(float(cr @ cr) - disc) / max(1.0, abs(disc))
    return [u, v, m.E, m.F, m.G, m.W, *res, lagrange]


def _shift_row(pair, u, v):
    zeta, _ = conformal.dilation_field(pair, u, v)
    return [u, v, zeta, *conformal.christoffel_shift_residual(pair, u, v)]


def _push_row(pair, u, v):
    zeta, _ = conformal.dilation_field(pair, u, v)
    return [u, v, zeta, *conformal.pushforward_residual(pair, u, v)]


CASES = [
    ("forms", "surface", "catenoid", catenoid, _forms_row, 6),
    ("forms", "surface", "stereo_sphere", stereographic_target, _forms_row, 6),
    ("christoffel-shift", "pair", "stereo", stereographic_pair, _shift_row, 3),
    ("christoffel-shift", "pair", "cat_hel", catenoid_helicoid_pair, _shift_row, 3),
    ("christoffel-shift", "pair", "flat_exp", flat_exp_pair, _shift_row, 3),
    ("christoffel-shift", "pair", "sheared", sheared_stereographic_pair, _shift_row, 3),
    ("pushforward", "pair", "stereo", stereographic_pair, _push_row, 3),
    ("pushforward", "pair", "inversion", inversion_sphere_pair, _push_row, 3),
]


@pytest.mark.parametrize("suite, key, name, make, row_at, first_residual", CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in CASES])
@pytest.mark.parametrize("tol", [None, 1e-30])
def test_suite_matches_per_point_functions(suite, key, name, make, row_at, first_residual, tol):
    member = make()
    res = _run_suite({"suite": suite, key: name}, {name: member}, tol)
    assert len(res.rows) == GRIDS["surface"] ** 2
    expected = [row_at(member, row[0], row[1]) for row in res.rows]
    apart = [(suite, c) in ROUNDED_APART for c in res.columns]
    for got_row, want_row in zip(res.rows, expected):
        for j, (got, want) in enumerate(zip(got_row, want_row)):
            bound = AGREE * max(1.0, abs(want)) if apart[j] else 0.0
            assert abs(got - want) <= bound, (res.columns[j], got, want)
    worst = max(x for row in expected for x in row[first_residual:])
    assert res.pass_ == (worst < res.tolerance)
    if any(apart):
        assert res.max_residual == pytest.approx(worst, abs=AGREE)
    else:
        assert res.max_residual == worst


ORACLE_SURFACES = {"plane": plane, "sphere": sphere, "catenoid": catenoid,
                   "stereo_sphere": stereographic_target, "helicoid": helicoid}


@pytest.mark.parametrize("make", ORACLE_SURFACES.values(), ids=ORACLE_SURFACES.keys())
def test_metric_derivative_identities_grid_is_points_bit_for_bit(make):
    surf = make()
    us, vs = cli.surface_grid(surf.domain, 12, np.random.default_rng(7))
    grid = geometry.metric_derivative_identities(surf, us, vs)
    assert grid.shape == (144, 6)
    for row, u, v in zip(grid.tolist(), us.tolist(), vs.tolist()):
        point = geometry.metric_derivative_identities(surf, u, v)
        assert all(type(x) is float for x in point)
        assert list(point) == row


def test_metric_derivative_identities_right_sides_ignore_the_jets_passed_in():
    surf = catenoid()
    us, vs = cli.surface_grid(surf.domain, 12, np.random.default_rng(7))
    pj = surf.jets(us, vs)
    planted = copy.copy(pj)
    planted.puu = pj.puu + 1e-6 * np.array([1.0, 0.0, 0.0])[:, None]
    clean = geometry.metric_derivative_identities(surf, us, vs, pj=pj)
    moved = geometry.metric_derivative_identities(surf, us, vs, pj=planted)
    # only the two left sides that read Psi_uu move, each by about 1e-6 Psi_u.e1
    # (Psi_v.e1): the difference quotients did not see the planted error
    for col, partner in ((0, pj.pu[0]), (1, pj.pv[0])):
        shift = 1e-6 * abs(partner)
        assert np.all(np.abs(moved[:, col] - shift) <= clean[:, col] + 1e-12)
    assert np.all(1e-6 * abs(pj.pu[0]) > 2.0 * clean[:, 0] + 1e-12)
    assert np.array_equal(moved[:, 2:], clean[:, 2:])


# E = 1 + exp(u)/4 overflows between U_HOT and U_HOT + h, the oracle's step:
# the center is finite, the stencil point (u + h, v) is not
U_HOT = 711.169002


def _hot_patch(domain=((0.0, 712.0), (0.0, 1.0))):
    return geometry.SurfacePatch(e2("u"), e2("v"), e2("exp(u/2)"), domain)


def test_overflow_at_a_shifted_stencil_point_names_the_point():
    hot = _hot_patch()
    us, vs = np.array([1.0, U_HOT, U_HOT]), np.array([0.5, 0.5, 0.6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = geometry.first_fundamental(hot, us, vs)
        assert np.all(np.isfinite(m.E))
        for u, v in ((U_HOT, 0.5), (us, vs)):
            with pytest.raises(geometry.GeometryError,
                               match=rf"residual is not finite at \({U_HOT}, 0\.5\)"):
                geometry.metric_derivative_identities(hot, u, v)


def test_cli_forms_overflow_at_a_shifted_stencil_point_exits_with_math_error(tmp_path, capsys):
    doc = copy.deepcopy(BASE_SCENARIO)
    # one grid point, 5 % into the box: u = U_HOT
    doc["surfaces"] = [{"name": "hot", "kind": "patch", "x": "u", "y": "v", "z": "exp(u/2)",
                        "domain": [[U_HOT - 0.05, U_HOT + 0.95], [0, 1]]}]
    doc["suites"] = [{"suite": "forms", "surface": "hot"}]
    doc["pairs"], doc["curves"], doc["profiles"] = [], [], []
    doc["grids"] = {"surface": 1}
    path = write_scenario(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 3
    err = capsys.readouterr().err
    assert "math error in suite 'forms' (surface='hot')" in err
    assert "metric-derivative residual is not finite at (711.16900" in err
    assert "Traceback" not in err


CURVE_GRIDS = {"surface": 4, "curve": 16, "mode": "random"}


def _cat_waist():
    raw = (parse_scalar_field("t", ("t",)), parse_scalar_field("0.6", ("t",)))
    return calculus.reparameterize_arclength(catenoid(), raw, 0.12, 1.15, 24)


def _curve_pool():
    """Members, curves with their s-ranges and profiles of the demo's curve suites."""
    waist = _cat_waist()
    curves = {
        "latitude": (latitude_curve(), (0.1, 4.0)),
        "diag_line": (diag_line(), (-0.8, 0.8)),
        "unit_circle": (geometry.ParamCurve(e1("cos(s)"), e1("sin(s)")), (0.1, 6.1)),
        "equator": (equator_curve(), (0.1, 6.1)),
        "line": (line_curve(), (-1.0, 1.0)),
        "offset_circle": (offset_circle_curve(), (0.0, 6.2)),
        "cat_waist": (waist, (0.0, waist.length)),
    }
    members = {
        "sphere": sphere(), "catenoid": catenoid(), "plane": plane(),
        "lifted_plane": plane(z="1"),
        "stereo": stereographic_pair(), "spheres": sphere_homothety_pair(),
        "cat_hel": catenoid_helicoid_pair(), "flat_exp": flat_exp_pair(),
    }
    profiles = {"nu_only": (e1("1+0.5*s"), e1("0")), "eta_only": (e1("0"), e1("1-0.25*s")),
                "generic": (e1("1+0.5*s"), e1("0.5*s^2-0.25"))}
    return members, curves, profiles


def _frenet_rows(surf, curve, ss, tol):
    rows = []
    for s in ss:
        fr = geometry.frenet(surf, curve, s)
        r_unit = abs(float(np.linalg.norm(fr.t)) - 1.0)
        if np.isnan(fr.n).all():
            rows.append([s, fr.kappa, None, r_unit, None, None, None, None])
            continue
        rows.append([s, fr.kappa, fr.tau, r_unit,
                     abs(float(fr.t @ fr.n)), abs(float(fr.t @ fr.b)), abs(float(fr.n @ fr.b)),
                     float(np.linalg.norm(fr.b - np.cross(fr.t, fr.n)))])
    return rows, {}


def _bracket_rows(pair, curve, ss, tol):
    rows = []
    for s in ss:
        bs = conformal.beltrami_bracket_shift(pair, curve, s)
        rows.append([s, bs.b_src, bs.b_tgt, bs.theta_bracket, bs.residual])
    return rows, {}


def _deviation_rows(pair, curve, ss, tol):
    reps = [conformal.geodesic_deviation_report(pair, curve, s, tol=tol) for s in ss]
    oracles = [conformal.image_geodesic_curvature(pair, curve, s) if pair.embedded else None
               for s in ss]
    # the weight pairing, pinned point by point
    worst = {k: max(r.i20_residuals[k] for r in reps) for k in conformal.PAIRINGS}
    if pair.embedded:
        dist = {w: sum(abs(r.kappa_g_tgt[w] - o) for r, o in zip(reps, oracles))
                for w in conformal.WEIGHTS}
        wt = min(conformal.WEIGHTS, key=lambda w: (dist[w], w))
        pinned = min((f"{wt}/{ws}" for ws in conformal.WEIGHTS), key=lambda k: (worst[k], k))
    else:
        pinned = min(conformal.PAIRINGS, key=lambda k: (worst[k], k))
    rows = [[s, r.zeta, r.f, r.h, r.kappa_g_src["W1"], r.kappa_g_src["W2"],
             r.kappa_g_tgt["W1"], r.kappa_g_tgt["W2"],
             *(r.i20_residuals[k] for k in conformal.PAIRINGS), o]
            for s, r, o in zip(ss, reps, oracles)]
    return rows, {"pinned_pairing": pinned}


def _theorem3_rows(pair, curve, ss, tol, nu, eta):
    rows = []
    for s in ss:
        r = normalcurve.theorem3_report(pair, curve, nu, eta, s)
        rows.append([s, r["zeta"], r["h"], r["lhs"], r["as_printed"], r["zeta4_on_h"],
                     min(r["as_printed"], r["zeta4_on_h"])])
    return rows, {}


def _tangential_rows(pair, curve, ss, tol, nu, eta):
    rows = []
    for s in ss:
        r = normalcurve.tangential_report(pair, curve, nu, eta, s)
        rows.append([s, r["zeta"], r["g1"], r["g2"], r["r_u"], r["r_v"], r["r_T"]])
    return rows, {}


def _classify_rows(surf, curve, ss, tol):
    maxima = {"c_t": 0.0, "c_n": 0.0, "c_b": 0.0}
    for s in ss:
        try:
            d = normalcurve.frame_decompose(surf, curve, s)
        except geometry.VanishingCurvatureError:
            return [["undefined", "", maxima["c_t"], maxima["c_n"], maxima["c_b"],
                     math.nan]], {}
        for name in maxima:
            maxima[name] = max(maxima[name], abs(getattr(d, name)))
    satisfied = [name for name in ("normal", "osculating", "rectifying")
                 if maxima[normalcurve.CLASS_COMPONENT[name]] < tol]
    verdict = satisfied[0] if satisfied else "generic"
    offending = (maxima[normalcurve.CLASS_COMPONENT[verdict]] if satisfied
                 else min(maxima.values()))
    return [[verdict, "+".join(satisfied), maxima["c_t"], maxima["c_n"], maxima["c_b"],
             offending]], {}


# suite, member key and name, curve, profile, per-point rows, residual columns
CURVE_CASES = [
    ("frenet", "surface", "sphere", "latitude", None, _frenet_rows, (3, 8)),
    ("frenet", "surface", "catenoid", "cat_waist", None, _frenet_rows, (3, 8)),
    ("frenet", "surface", "plane", "line", None, _frenet_rows, (3, 8)),
    ("bracket-shift", "pair", "stereo", "diag_line", None, _bracket_rows, (4, 5)),
    ("bracket-shift", "pair", "spheres", "latitude", None, _bracket_rows, (4, 5)),
    ("bracket-shift", "pair", "flat_exp", "diag_line", None, _bracket_rows, (4, 5)),
    ("geodesic-deviation", "pair", "stereo", "diag_line", None, _deviation_rows, None),
    ("geodesic-deviation", "pair", "flat_exp", "diag_line", None, _deviation_rows, None),
    ("theorem3", "pair", "spheres", "latitude", "nu_only", _theorem3_rows, (6, 7)),
    ("theorem3", "pair", "cat_hel", "cat_waist", "generic", _theorem3_rows, (6, 7)),
    ("tangential", "pair", "stereo", "unit_circle", "generic", _tangential_rows, (4, 7)),
    ("tangential", "pair", "spheres", "latitude", "eta_only", _tangential_rows, (4, 7)),
    ("classify", "surface", "sphere", "equator", None, _classify_rows, None),
    ("classify", "surface", "plane", "line", None, _classify_rows, None),
    ("classify", "surface", "lifted_plane", "offset_circle", None, _classify_rows, None),
]


def _cell_agrees(got, want, apart: bool) -> bool:
    if isinstance(want, str) or want is None:
        return got == want
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= AGREE * max(1.0, abs(want)) if apart else got == want


@pytest.mark.parametrize("suite, key, name, curve_name, profile, rows_at, residuals",
                         CURVE_CASES, ids=[f"{c[0]}-{c[2]}-{c[3]}" for c in CURVE_CASES])
@pytest.mark.parametrize("tol", [None, 1e-30])
def test_curve_suite_matches_per_point_functions(suite, key, name, curve_name, profile,
                                                 rows_at, residuals, tol):
    members, curves, profiles = _curve_pool()
    curve, s_range = curves[curve_name]
    entry = {"suite": suite, key: name, "curve": curve_name}
    extra = ()
    if profile is not None:
        entry["profile"] = profile
        extra = profiles[profile]
    sc = cli.Scenario(path=Path("grid.json"), digest="", surfaces=members, pairs=members,
                      curves={curve_name: curve}, curve_ranges={curve_name: s_range},
                      profiles=profiles)
    tolerances = dict(cli.DEFAULT_TOLERANCES)
    if tol is not None:
        tolerances[suite] = tol
    res = cli.run_suite(sc, entry, CURVE_GRIDS, tolerances, np.random.default_rng(5))

    n = max(CURVE_GRIDS["curve"], 64) if suite == "classify" else CURVE_GRIDS["curve"]
    ss = cli.curve_grid(s_range, n, np.random.default_rng(5)).tolist()
    want_rows, want_params = rows_at(members[name], curve, ss, tolerances[suite], *extra)
    assert len(res.rows) == len(want_rows)
    apart = [(suite, c) in ROUNDED_APART for c in res.columns]
    for got_row, want_row in zip(res.rows, want_rows):
        for j, (got, want) in enumerate(zip(got_row, want_row)):
            assert _cell_agrees(got, want, apart[j]), (res.columns[j], got, want)
    for k, v in want_params.items():
        assert res.params[k] == v

    tol = res.tolerance
    if suite == "classify":
        verdict = want_rows[0][0]
        assert res.pass_ == (verdict == "normal" if name == "sphere" else verdict != "undefined")
        return
    if suite == "geodesic-deviation":
        j = res.columns.index("r_" + want_params["pinned_pairing"].replace("/", "_"))
        worst = max(row[j] for row in want_rows)
    elif suite == "theorem3":
        worst = max(row[6] for row in want_rows)
    else:
        lo, hi = residuals
        worst = max((x for row in want_rows for x in row[lo:hi] if x is not None), default=0.0)
    assert res.pass_ == (worst < tol)
    if any(apart):
        assert res.max_residual == pytest.approx(worst, abs=AGREE)
    else:
        assert res.max_residual == worst


# -- verdicts and reports ------------------------------------------------------------


def test_nan_residual_is_the_worst():
    cols = ["a", "b"]
    for rows in ([[0.0, 1.0], [math.nan, 0.5]], [[math.nan, 0.0]], [[1.0, math.nan]]):
        assert math.isnan(cli._max_over(rows, cols, cols))


def test_nan_residual_fails_the_suite(identity_scenario, tmp_path, capsys, monkeypatch):
    real = conformal.christoffel_shift_residual

    def with_nan(*args, **kwargs):
        res = real(*args, **kwargs)
        return (np.where(np.arange(res[0].size) == 3, math.nan, res[0]),) + res[1:]

    monkeypatch.setattr(conformal, "christoffel_shift_residual", with_nan)
    code = cli.main(["--scenario", str(identity_scenario), "--out", str(tmp_path / "r"),
                     "--suite", "christoffel-shift"])
    assert code == 1
    assert "FAIL christoffel-shift" in capsys.readouterr().out


@pytest.fixture()
def identity_scenario(tmp_path):
    return write_scenario(tmp_path, BASE_SCENARIO)


def _surface_scenario(tmp_path):
    doc = {
        "surfaces": [
            {"name": "plane", "kind": "patch", "x": "u", "y": "v", "z": "0",
             "domain": [[-1.0, 1.0], [-1.0, 1.0]]},
            {"name": "sphere", "kind": "patch", "x": "2*u/(1+u^2+v^2)",
             "y": "2*v/(1+u^2+v^2)", "z": "(u^2+v^2-1)/(1+u^2+v^2)",
             "domain": [[-1.0, 1.0], [-1.0, 1.0]]},
        ],
        "pairs": [{"name": "stereo", "source": "plane", "target": "sphere",
                   "dilation": "2/(1+u^2+v^2)",
                   "ambient_map": ["2*x/(x^2+y^2+(z-1)^2)", "2*y/(x^2+y^2+(z-1)^2)",
                                   "1+2*(z-1)/(x^2+y^2+(z-1)^2)"]}],
        "suites": [{"suite": "forms", "surface": "sphere"},
                   {"suite": "christoffel-shift", "pair": "stereo"},
                   {"suite": "pushforward", "pair": "stereo"}],
        "grids": {"surface": 5, "curve": 4, "mode": "random"},
    }
    return write_scenario(tmp_path, doc, "surf.json")


def test_reports_hold_plain_floats(tmp_path):
    path = _surface_scenario(tmp_path)
    sc = cli.load_scenario(path)
    for entry in sc.suites:
        res = cli.run_suite(sc, entry, sc.grids, sc.tolerances, np.random.default_rng(1))
        assert all(type(x) is float for row in res.rows for x in row)
        assert type(res.max_residual) is float
    for fmt in ("obj", "table"):
        out = tmp_path / fmt
        assert cli.main(["--scenario", str(path), "--out", str(out), "--format", fmt]) == 0
        for report in out.iterdir():
            text = report.read_text()
            assert "np." not in text and "float64" not in text
            if fmt == "table":
                for line in text.splitlines()[1:]:
                    for cell in line.split(","):
                        assert repr(float(cell)) == cell
            else:
                assert json.loads(text)["rows"]


def test_fmt_writes_numpy_floats_as_plain_floats():
    assert cli._fmt(np.float64(0.25)) == "0.25"
    assert cli._fmt(0.1) == "0.1"
