"""The grid path (arrays through the one jet arithmetic) against the
per-point path (floats through the same functions).

numpy's exp, log, tan, sinh, cosh, tanh and power may round differently
from the C library's by an ulp or two; sin, cos, sqrt and + - * / round
alike.  The two paths therefore agree to rounding wherever an expression
is well conditioned.  The expression generator keeps the arguments of the
first group bounded (they see only sin or cos of a sub-expression), and
values are compared normwise over each jet, relative to its largest field.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confgeo import cli, conformal, geometry
from confgeo.exprkit import EvalDomainError, eval_grad3, eval_jet2, parse_scalar_field
from conftest import (
    STEREO_BOX,
    catenoid,
    catenoid_helicoid_pair,
    e2,
    flat_exp_pair,
    inversion_sphere_pair,
    plane,
    sheared_stereographic_pair,
    stereographic_pair,
    stereographic_target,
)
from test_cli import BASE_SCENARIO, write_scenario

AGREE = 1e-13


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


def _check_grid_matches_points(evaluate, text, names, points):
    """Evaluate at each point and once over the grid of all of them."""
    e = parse_scalar_field(text, names)
    per_point, first_error = [], None
    for point in zip(*(p.tolist() for p in points)):
        try:
            per_point.append(_fields(evaluate(e, *point)))
        except EvalDomainError as err:
            per_point.append(None)
            first_error = first_error or err
    try:
        grid = evaluate(e, *points)
    except EvalDomainError as err:
        if first_error is not None:
            # the same node and the same first point as point by point
            assert (err.node_text, err.point, err.reason) == \
                   (first_error.node_text, first_error.point, first_error.reason)
        else:
            # numpy flags an overflow the float path let through as inf
            bad = [k for k, f in enumerate(per_point) if not np.all(np.isfinite(f))]
            assert bad and err.point == tuple(float(p[bad[0]]) for p in points)
        return
    assert first_error is None
    got = np.array(_fields(grid))
    for k, want in enumerate(per_point):
        want = np.array(want)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got[:, k] - want)) <= AGREE * scale, (text, k)


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
    fd_columns = range(6, 12) if suite == "forms" else ()
    for got_row, want_row in zip(res.rows, expected):
        for j, (got, want) in enumerate(zip(got_row, want_row)):
            # the finite-difference oracle runs per point on both sides: exact
            bound = 0.0 if j in fd_columns else AGREE * max(1.0, abs(want))
            assert abs(got - want) <= bound, (res.columns[j], got, want)
    worst = max(x for row in expected for x in row[first_residual:])
    assert res.pass_ == (worst < res.tolerance)
    assert res.max_residual == pytest.approx(worst, abs=AGREE)


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
