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
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confgeo import calculus, cli, conformal, exprkit, geometry, normalcurve, pcg64
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
from test_cli import BASE_SCENARIO, DEMO, write_scenario

AGREE = 1e-13

# Cells whose per-point reference rounds apart from the suite, compared
# within AGREE: the reference rows take BLAS ``@`` and ``np.linalg.norm``
# (r_lagrange, r_unit, r_tn).  Every other cell is compared bit for bit.
ROUNDED_APART = {("forms", "r_lagrange"), ("frenet", "r_unit"), ("frenet", "r_tn")}


def _exprs(names, depth: int):
    leaf = st.one_of(
        st.sampled_from(names),
        st.floats(0.1, 2.5).map(lambda x: repr(round(x, 3))),
    )
    if depth == 0:
        return leaf
    sub = _exprs(names, depth - 1)
    # products and quotients first and twice, leaves last: a jet's Leibniz
    # and quotient sums round by their order only in a product of non-trivial
    # factors, and one_of draws (and shrinks towards) its earlier branches
    product = st.tuples(st.sampled_from("*/"), sub, sub).map(lambda t: f"({t[1]}{t[0]}{t[2]})")
    return st.one_of(
        product,
        product,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: f"({t[1]}{t[0]}{t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "log", "sqrt", "-"]), sub)
        .map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(st.sampled_from(["tan", "exp", "sinh", "cosh", "tanh"]),
                  st.sampled_from(["sin", "cos"]), sub)
        .map(lambda t: f"{t[0]}({t[1]}({t[2]}))"),
        st.tuples(sub, st.sampled_from(["2", "3", "-1", "0.5"])).map(lambda t: f"({t[0]})^({t[1]})"),
        leaf,
    )


def _fields(jet) -> list:
    return list(jet)


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


def _u_coefficients(text: str, order: int, u) -> list:
    """value, d/du, ... of ``text`` (in u only) from the evaluation of that
    order: ``evaluate``, ``eval_grad3``, ``eval_jet2`` or ``eval_jet3``."""
    zero = np.zeros_like(u)
    if order == 0:
        return [evaluate(parse_scalar_field(text, ("u",)), u)]
    if order == 1:
        g = eval_grad3(parse_scalar_field(text, ("u", "y", "z")), u, zero, zero)
        return [g.value, g.gx]
    if order == 2:
        j = eval_jet2(parse_scalar_field(text, ("u", "v")), u, zero)
        return [j.value, j.du, j.duu]
    j = eval_jet3(parse_scalar_field(text, ("u",)), u)
    return [j.value, j.d1, j.d2, j.d3]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=_exprs(["u"], 3), seed=st.integers(0, 2**32 - 1))
# products, quotients and compositions whose terms all round: most drawn
# expressions are too small to tell one summation order from another
@example(text="((sin(u)*cos((u*u)))/exp(sin(u)))", seed=1)
@example(text="(sqrt((2.5+sin(u)))*log((3.0+(u*u))))", seed=2)
@example(text="(tanh(sin((u*cos(u))))^3)", seed=3)
def test_every_order_gives_the_same_bits(text, seed):
    # one arithmetic: a coefficient gets the same bits at every order that
    # computes it, and fails at every order past the first that fails
    u = np.random.default_rng(seed).uniform(-2, 2, 8)
    outcomes = []
    for order in range(4):
        try:
            outcomes.append(_u_coefficients(text, order, u))
        except EvalDomainError as err:
            outcomes.append(err)
    for order, (lo, hi) in enumerate(zip(outcomes, outcomes[1:])):
        if not isinstance(lo, EvalDomainError):
            if not isinstance(hi, EvalDomainError):
                assert [c.tobytes() for c in hi[:len(lo)]] == [c.tobytes() for c in lo], text
            continue
        assert isinstance(hi, EvalDomainError), (text, order)
        if (hi.reason, hi.node_text, hi.point[0]) != (lo.reason, lo.node_text, lo.point[0]):
            # the higher order met a derivative that fails first: at its
            # point, its sub-expression evaluates to the lower order
            _u_coefficients(hi.node_text, order, np.array([hi.point[0]]))


# -- walks to a lower order ---------------------------------------------------


def _check_orders_agree(text, names, values):
    """Each lower-order walk of ``text`` over ``values`` against the
    full-order walk: the same bits in every coefficient both compute, and
    None past the lower order.  A lower order may pass where the full order
    fails, never the other way round."""
    e = parse_scalar_field(text, names)
    walk, full = {1: (eval_jet3, 3), 2: (eval_jet2, 2)}[len(names)]
    try:
        top = walk(e, *values)
    except EvalDomainError:
        return
    for order in range(full):
        jet = walk(e, *values, order)
        n = math.comb(len(names) + order, order)  # the coefficients to that order
        assert [np.asarray(c).tobytes() for c in jet[:n]] == \
               [c.tobytes() for c in top[:n]], (text, order)
        assert all(c is None for c in jet[n:]), (text, order)


def _demo_fields() -> list:
    """Every expression of the demo scenario with its variables, but the
    ambient maps: ``eval_grad3`` walks them at its one order."""
    doc = json.loads(DEMO.read_text())
    fields = [(surf[k], ("u", "v")) for surf in doc["surfaces"]
              for k in ("x", "y", "z", "E", "F", "G") if k in surf]
    fields += [(c[k], ("t",) if c.get("reparameterize") else ("s",))
               for c in doc["curves"] for k in ("u", "v")]
    fields += [(p["dilation"], ("u", "v")) for p in doc["pairs"] if "dilation" in p]
    fields += [(prof[k], ("s",)) for prof in doc["profiles"] for k in ("nu", "eta")]
    return sorted(set(fields))


@pytest.mark.parametrize("text, names", _demo_fields())
def test_demo_walks_agree_across_orders(text, names):
    rng = np.random.default_rng(5)
    values = [rng.uniform(-1.0, 1.0, 16) for _ in names]
    _check_orders_agree(text, names, values)
    for point in zip(*(x.tolist() for x in values)):
        _check_orders_agree(text, names, point)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=_exprs(["u", "v"], 3), seed=st.integers(0, 2**32 - 1))
def test_eval_jet2_orders_agree(text, seed):
    rng = np.random.default_rng(seed)
    values = [rng.uniform(-2, 2, 8), rng.uniform(-2, 2, 8)]
    _check_orders_agree(text, ("u", "v"), values)
    _check_orders_agree(text, ("u", "v"), [float(x[0]) for x in values])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(text=_exprs(["s"], 3), seed=st.integers(0, 2**32 - 1))
def test_eval_jet3_orders_agree(text, seed):
    values = [np.random.default_rng(seed).uniform(-2, 2, 8)]
    _check_orders_agree(text, ("s",), values)
    _check_orders_agree(text, ("s",), [float(values[0][0])])


@pytest.mark.parametrize("surf", [catenoid(), sphere(), stereographic_target()])
def test_order_one_patch_jets_and_first_form(surf):
    # the order-1 patch jets and first form hold the bits of the full ones,
    # and None where they stop
    u, v = cli.surface_grid(surf.domain, 4, np.random.default_rng(2))
    for args in ((u, v), (float(u[0]), float(v[0]))):
        pj1, pj = surf.jets(*args, 1), surf.jets(*args, 2)
        assert [x.tobytes() for x in pj1[:3]] == [x.tobytes() for x in pj[:3]]
        assert pj1[3:] == (None, None, None)
        m1, m = surf.first_form(*args, order=1), surf.first_form(*args)
        assert [np.asarray(x).tobytes() for x in m1[:4]] == [x.tobytes() for x in m[:4]]
        assert m1[4:] == (None,) * 6


@pytest.mark.parametrize("text, names, kind, point, want", [
    ("log(s)", ("s",), evaluate, (1e-110,), [math.log(1e-110)]),
    ("log(u)", ("u", "v"), eval_jet2, (1e-110, 1.0),
     [math.log(1e-110), 1 / 1e-110, 0.0, -1 / 1e-110 ** 2, 0.0, 0.0]),
    ("log(x)", ("x", "y", "z"), eval_grad3, (1e-160, 1.0, 1.0),
     [math.log(1e-160), 1 / 1e-160, 0.0, 0.0]),
    ("sqrt(s)", ("s",), evaluate, (1e150,), [math.sqrt(1e150)]),
    ("sqrt(s)", ("s",), evaluate, (0.0,), [0.0]),
    ("log(s)", ("s",), eval_jet3, (1e-110,), None),  # d3 = 2/s^3 is not finite
], ids=["log-value", "log-jet2", "log-grad3", "sqrt-large", "sqrt-zero", "log-jet3"])
def test_a_jet_reads_derivatives_only_to_its_order(text, names, kind, point, want):
    e = parse_scalar_field(text, names)
    if want is None:
        with pytest.raises(EvalDomainError, match=r"in sub-expression 'log\(s\)'"):
            kind(e, *point)
        return
    got = kind(e, *point)
    got = [float(x) for x in (got if kind is not evaluate else [got])]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= AGREE * max(1.0, abs(w)), (text, got, want)


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


@pytest.mark.parametrize("bad", [[-1], [9000, 12345, -1], [0, 5]],
                         ids=["last", "three", "first"])
def test_failing_grid_point_is_found_by_halving(bad, monkeypatch):
    # the message is the one a walk at the first failing point gives, after
    # at most 2*log2(n) + 2 walks of the expression
    walks = []
    real = exprkit._evaluate

    def counting(values, walk):
        def counted(p):
            walks.append(p[0].size)
            return walk(p)
        return real(values, counted)

    monkeypatch.setattr(exprkit, "_evaluate", counting)
    e = e2("cosh(v)*cos(u)+log(u)")
    us, vs = cli.surface_grid(((1.0, 2.0), (0.0, 1.0)), 128, None)
    us[bad] = -1.0
    with pytest.raises(EvalDomainError) as point:
        eval_jet2(e, float(us[bad[0]]), float(vs[bad[0]]))
    walks.clear()
    with pytest.raises(EvalDomainError) as grid:
        eval_jet2(e, us, vs)
    assert str(grid.value) == str(point.value)
    assert grid.value.point == (-1.0, float(vs[bad[0]]))
    assert len(walks) <= 2 * math.log2(us.size) + 2


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
    with pytest.raises(conformal.ConformalError) as grid:
        conformal.dilation_field(pair, us, vs, *pair.forms(us, vs))
    with pytest.raises(conformal.ConformalError) as scalar:
        conformal.dilation_field(pair, 0.5, 0.3, *pair.forms(0.5, 0.3))
    assert str(grid.value) == str(scalar.value)
    # the residuals are spelled as Python floats, as at a point
    assert str(grid.value) == ("pair is not conformal at (0.5, 0.3): metric ratio residuals "
                               "(E, F, G) = (0.0, 0.0, 0.0625)")


def test_domain_box_names_first_outside_point():
    with pytest.raises(geometry.GeometryError, match=r"point \(5\.0, 0\.0\) outside"):
        catenoid().jets(np.array([0.5, 5.0, 6.0]), np.array([0.5, 0.0, 0.0]), 2)


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


def test_cli_wrong_declared_dilation_names_first_grid_point(tmp_path, capsys):
    # the suites that read the declared dilation's jet check it, and so does
    # the pushforward suite, which reads none
    doc = copy.deepcopy(BASE_SCENARIO)
    doc["pairs"] = [{"name": "bad", "source": "plane", "target": "plane", "dilation": "2",
                     "ambient_map": ["x", "y", "z"]}]
    doc["suites"] = [{"suite": "pushforward", "pair": "bad"},
                     {"suite": "christoffel-shift", "pair": "bad"}]
    path = write_scenario(tmp_path, doc)
    u0, v0 = (float(a[0]) for a in cli.surface_grid(((-1.5, 1.5), (-1.5, 1.5)), 4, None))
    for suite in ("pushforward", "christoffel-shift"):
        assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "r"),
                         "--suite", suite]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"math error in suite '{suite}' (pair='bad'): declared dilation 2.0 "
                       f"disagrees with estimate 1.0 at ({u0!r}, {v0!r})\n")


# -- suites against the per-point functions ------------------------------------------

GRIDS = {"surface": 12, "curve": 4, "mode": "random"}


def _run_suite(entry, pool, tol):
    sc = cli.Scenario(Path("grid.json"), "")
    sc.surfaces = sc.pairs = pool
    tolerances = dict(cli.DEFAULT_TOLERANCES)
    if tol is not None:
        tolerances[entry["suite"]] = tol
    return cli.run_suite(sc, entry, GRIDS, tolerances, np.random.default_rng(3))


def _forms_row(surf, u, v):
    pj = surf.jets(u, v, 2)
    m = geometry.first_fundamental(pj, u, v)
    res = geometry.metric_derivative_identities(surf, u, v, pj)
    cr = np.cross(pj.pu, pj.pv)
    disc = m.E * m.G - m.F * m.F
    lagrange = abs(float(cr @ cr) - disc) / max(1.0, abs(disc))
    return [u, v, m.E, m.F, m.G, m.W, *res, lagrange]


def _shift_row(pair, u, v):
    zeta = conformal.dilation_field(pair, u, v, *pair.forms(u, v))
    return [u, v, zeta, *conformal.christoffel_shift_residual(pair, u, v)]


def _push_row(pair, u, v):
    zeta = conformal.dilation_field(pair, u, v, *pair.forms(u, v))
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
    expected = [row_at(member, u, v)
                for u, v in zip(res.columns["u"].tolist(), res.columns["v"].tolist())]
    apart = [(suite, c) in ROUNDED_APART for c in res.columns]
    for j, (col_name, col) in enumerate(res.columns.items()):
        for got, want_row in zip(col.tolist(), expected, strict=True):
            want = want_row[j]
            bound = AGREE * max(1.0, abs(want)) if apart[j] else 0.0
            assert abs(got - want) <= bound, (col_name, got, want)
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
    grid = geometry.metric_derivative_identities(surf, us, vs, surf.jets(us, vs, 2))
    assert grid.shape == (144, 6)
    for row, u, v in zip(grid.tolist(), us.tolist(), vs.tolist()):
        point = geometry.metric_derivative_identities(surf, u, v, surf.jets(u, v, 2))
        assert point.shape == (6,)
        assert point.tolist() == row


def test_metric_derivative_identities_refuse_mixed_shapes():
    # a float u beside an array v is no grid: its jets are refused, and the
    # identities refuse it with the jets of a grid, or arrays of one size
    surf, vs = catenoid(), np.array([0.3, 0.4])
    with pytest.raises(exprkit.ExprError, match="one shape"):
        surf.jets(0.5, vs, 2)
    pj = surf.jets(np.full(2, 0.5), vs, 2)
    for u, v in ((0.5, vs), (np.full((2, 1), 0.5), vs)):
        with pytest.raises(geometry.GeometryError, match=re.escape(
                f"identities need u, v of one shape, got {np.shape(u)}, {np.shape(v)}")):
            geometry.metric_derivative_identities(surf, u, v, pj)


def test_metric_derivative_identities_2d_grid_gives_each_point_its_own_row():
    surf = catenoid()
    us, vs = np.meshgrid([0.3, 0.7], [0.3, 0.5, 0.8], indexing="ij")
    grid = geometry.metric_derivative_identities(surf, us, vs, surf.jets(us, vs, 2))
    assert grid.shape == (2, 3, 6)
    for i, j in np.ndindex(us.shape):
        u, v = float(us[i, j]), float(vs[i, j])
        point = geometry.metric_derivative_identities(surf, u, v, surf.jets(u, v, 2))
        assert np.array_equal(grid[i, j].view(np.uint64), point.view(np.uint64))


def _reshaped_bits(grid, flat, shape):
    # every array of ``grid`` is its array of ``flat`` with the last axis
    # made ``shape``, bit for bit, in records and tuples alike
    if isinstance(flat, tuple):
        assert type(grid) is type(flat) and len(grid) == len(flat)
        for g, f in zip(grid, flat):
            _reshaped_bits(g, f, shape)
    elif flat is None:
        assert grid is None
    else:
        assert grid.shape == flat.shape[:-1] + shape
        assert grid.tobytes() == flat.reshape(grid.shape).tobytes()


def test_a_2d_grid_gives_the_values_of_its_flat_grid_at_every_layer():
    # a grid of one shape may be of any shape: each layer gives the (2, 3)
    # grid the bits of its flat grid of 6 points, reshaped
    shape = (2, 3)
    us, vs = np.meshgrid([0.3, 0.7], [0.3, 0.5, 0.8], indexing="ij")
    surf, pair = catenoid(), stereographic_pair()
    metric, waist = flat_exp_pair().target, _cat_waist()
    ss = np.linspace(0.1, 0.9, 6).reshape(shape)

    def layers(u, v, s):
        pj = surf.jets(u, v, 2)
        m, mt = pair.source.first_form(u, v), pair.target.first_form(u, v)
        return {"SurfacePatch.jets": pj, "AbstractMetric.first_form": metric.first_form(u, v),
                "first_fundamental": geometry.first_fundamental(pj, u, v),
                "second_fundamental": geometry.second_fundamental(pj, u, v),
                "ParamCurve.jets": latitude_curve().jets(s),
                "UnitSpeedCurve.jets": waist.jets(s * waist.length),
                "dilation_jet": conformal.dilation_jet(pair, u, v, m, mt)}

    flat = layers(us.ravel(), vs.ravel(), ss.ravel())
    for name, value in layers(us, vs, ss).items():
        _reshaped_bits(value, flat[name], shape)


def test_metric_derivative_identities_right_sides_ignore_the_jets_passed_in():
    surf = catenoid()
    us, vs = cli.surface_grid(surf.domain, 12, np.random.default_rng(7))
    pj = surf.jets(us, vs, 2)
    planted = pj._replace(puu=pj.puu + 1e-6 * np.array([1.0, 0.0, 0.0])[:, None])
    clean = geometry.metric_derivative_identities(surf, us, vs, pj)
    moved = geometry.metric_derivative_identities(surf, us, vs, planted)
    # only the two left sides that read Psi_uu move, each by about 1e-6 Psi_u.e1
    # (Psi_v.e1): the difference quotients did not see the planted error
    for col, partner in ((0, pj.pu[0]), (1, pj.pv[0])):
        shift = 1e-6 * abs(partner)
        assert np.all(np.abs(moved[:, col] - shift) <= clean[:, col] + 1e-12)
    assert np.all(1e-6 * abs(pj.pu[0]) > 2.0 * clean[:, 0] + 1e-12)
    assert np.array_equal(moved[:, 2:], clean[:, 2:])


def _per_shift_oracle(surf, u, v):
    """The residuals of ``metric_derivative_identities`` with one walk per
    shifted grid: the reference the one walk of all four is held to."""
    pj, h, dot = surf.jets(u, v, 2), 1e-5, geometry.dot
    shifted = [surf.jets(uu, vv, 1) for uu, vv in ((u + h, v), (u - h, v), (u, v + h), (u, v - h))]
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.array([[dot(q.pu, q.pu), dot(q.pu, q.pv), dot(q.pv, q.pv)] for q in shifted])
        E_u, F_u, G_u = (m[0] - m[1]) / (2.0 * h)
        E_v, F_v, G_v = (m[2] - m[3]) / (2.0 * h)
        lhs = [dot(a, b) for a in (pj.puu, pj.puv, pj.pvv) for b in (pj.pu, pj.pv)]
        rhs = [E_u / 2.0, F_u - E_v / 2.0, E_v / 2.0, G_u / 2.0, F_v - G_u / 2.0, G_v / 2.0]
        return abs(np.column_stack(lhs) - np.column_stack(rhs))


DEMO_PATCHES = {name: cli.load_scenario(DEMO).surfaces[name]
                for name in ("catenoid", "stereo_sphere")}


@st.composite
def _patch_points(draw):
    """A demo patch and 1 to 12 points of its box, edges included."""
    name = draw(st.sampled_from(sorted(DEMO_PATCHES)))
    (u0, u1), (v0, v1) = DEMO_PATCHES[name].domain
    pts = draw(st.lists(st.tuples(st.floats(u0, u1), st.floats(v0, v1)), min_size=1, max_size=12))
    return name, np.array([u for u, _ in pts]), np.array([v for _, v in pts])


def _same_residuals(surf, u, v):
    # the one walk of the four shifted grids against four walks: every
    # residual bit for bit, or the same error
    try:
        want = _per_shift_oracle(surf, u, v)
    except geometry.GeometryError as err:
        with pytest.raises(geometry.GeometryError) as got:
            geometry.metric_derivative_identities(surf, u, v, surf.jets(u, v, 2))
        assert str(got.value) == str(err)
        return
    got = geometry.metric_derivative_identities(surf, u, v, surf.jets(u, v, 2)).reshape(want.shape)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(drawn=_patch_points())
def test_stacked_oracle_is_the_per_shift_oracle_bit_for_bit(drawn):
    name, us, vs = drawn
    surf = DEMO_PATCHES[name]
    _same_residuals(surf, us, vs)
    # a grid of one and a single point
    _same_residuals(surf, us[:1], vs[:1])
    _same_residuals(surf, float(us[0]), float(vs[0]))


@pytest.mark.parametrize("name", sorted(DEMO_PATCHES))
def test_stacked_oracle_on_the_suite_grid(name):
    surf = DEMO_PATCHES[name]
    for grid in (cli.surface_grid(surf.domain, 12, np.random.default_rng(7)),
                 cli.surface_grid(surf.domain, 12, None)):
        _same_residuals(surf, *grid)


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
        m = hot.first_form(us, vs)
        assert np.all(np.isfinite(m.E))
        for u, v in ((U_HOT, 0.5), (us, vs)):
            with pytest.raises(geometry.GeometryError,
                               match=rf"residual is not finite at \({U_HOT}, 0\.5\)"):
                geometry.metric_derivative_identities(hot, u, v, hot.jets(u, v, 2))


def test_overflow_at_a_shifted_stencil_point_names_the_point_of_a_2d_grid():
    hot = _hot_patch()
    us, vs = np.array([[1.0, 1.0], [U_HOT, 2.0]]), np.array([[0.5, 0.6], [0.7, 0.8]])
    with pytest.raises(geometry.GeometryError,
                       match=rf"residual is not finite at \({U_HOT}, 0\.7\)"):
        geometry.metric_derivative_identities(hot, us, vs, hot.jets(us, vs, 2))


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
    reps = [conformal.geodesic_deviation_report(pair, curve, s) for s in ss]
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
        except geometry.GeometryError as err:
            if not str(err).endswith("Frenet frame undefined"):
                raise
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
    sc = cli.Scenario(Path("grid.json"), "")
    sc.surfaces = sc.pairs = members
    sc.curves, sc.curve_ranges = {curve_name: curve}, {curve_name: s_range}
    sc.profiles = profiles
    tolerances = dict(cli.DEFAULT_TOLERANCES)
    if tol is not None:
        tolerances[suite] = tol
    res = cli.run_suite(sc, entry, CURVE_GRIDS, tolerances, np.random.default_rng(5))

    n = max(CURVE_GRIDS["curve"], 64) if suite == "classify" else CURVE_GRIDS["curve"]
    ss = cli.curve_grid(s_range, n, np.random.default_rng(5)).tolist()
    want_rows, want_params = rows_at(members[name], curve, ss, tolerances[suite], *extra)
    assert len(res.rows) == len(want_rows)
    apart = [(suite, c) in ROUNDED_APART for c in res.columns]
    for j, (col_name, col) in enumerate(res.columns.items()):
        for got, want_row in zip(col.tolist(), want_rows, strict=True):
            assert _cell_agrees(got, want_row[j], apart[j]), (col_name, got, want_row[j])
    for k, v in want_params.items():
        assert res.params[k] == v

    tol = res.tolerance
    if suite == "classify":
        verdict = want_rows[0][0]
        assert res.pass_ == (verdict == "normal" if name == "sphere" else verdict != "undefined")
        return
    if suite == "geodesic-deviation":
        j = list(res.columns).index("r_" + want_params["pinned_pairing"].replace("/", "_"))
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
    names = ["a", "b"]
    for rows in ([[0.0, 1.0], [math.nan, 0.5]], [[math.nan, 0.0]], [[1.0, math.nan]]):
        worst, _ = cli._worst(dict(zip(names, np.array(rows).T)), names)
        assert math.isnan(worst)


def test_nan_residual_fails_the_suite(identity_scenario, tmp_path, capsys, monkeypatch):
    real = conformal.christoffel_shift_report

    def with_nan(*args, **kwargs):
        zeta, r111, *rest = real(*args, **kwargs)
        return (zeta, np.where(np.arange(r111.size) == 3, math.nan, r111), *rest)

    monkeypatch.setattr(conformal, "christoffel_shift_report", with_nan)
    code = cli.main(["--scenario", str(identity_scenario), "--out", str(tmp_path / "r"),
                     "--suite", "christoffel-shift"])
    assert code == 1
    assert "FAIL christoffel-shift" in capsys.readouterr().out


def test_summary_line_names_the_worst_cell(identity_scenario, tmp_path, capsys, monkeypatch):
    # the identity pair's residuals are exactly zero; plant 1e-3 in r121 at
    # row 5, and NaN in r111 at row 9 for the second run (slot 0 is zeta)
    real = conformal.christoffel_shift_report
    planted = {3: (5, 1e-3)}

    def with_planted(*args, **kwargs):
        res = list(real(*args, **kwargs))
        for slot, (row, x) in planted.items():
            res[slot] = np.where(np.arange(res[slot].size) == row, x, res[slot])
        return tuple(res)

    monkeypatch.setattr(conformal, "christoffel_shift_report", with_planted)
    us, vs = (a.tolist() for a in cli.surface_grid(((-1.5, 1.5), (-1.5, 1.5)), 4, None))
    argv = ["--scenario", str(identity_scenario), "--out", str(tmp_path / "r"),
            "--suite", "christoffel-shift"]
    assert cli.main(argv) == 1
    assert (f"FAIL christoffel-shift (pair='id'): max residual 1.000e-03 in r121 "
            f"at u={us[5]!r}, v={vs[5]!r} vs tol") in capsys.readouterr().out
    planted[1] = (9, math.nan)
    assert cli.main(argv) == 1
    assert (f"max residual nan in r111 at u={us[9]!r}, v={vs[9]!r} "
            in capsys.readouterr().out)


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
        assert all(type(x) is float for col in res.columns.values() for x in col.tolist())
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


# -- random grids: confgeo's own stream against numpy's Generator, bit for bit

STREAM_SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**70 + 11, 90803527]
STREAM_LENGTHS = [1, 2, 63, 64, 384, 1024, 2048, 32768]


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _check_stream(seed: int, n: int, lo: float, hi: float) -> None:
    assert np.array_equal(_bits(pcg64.doubles(seed, n)),
                          _bits(np.random.default_rng(seed).random(n)))
    # the us then the vs of a surface grid: one stream read on, scaled as
    # Generator.uniform
    ours, theirs = pcg64.Draws(pcg64.doubles(seed, 2 * n)), np.random.default_rng(seed)
    for low, high in ((lo, hi), (lo - 1.5, hi + 0.25)):
        assert np.array_equal(_bits(ours.uniform(low, high, n)),
                              _bits(theirs.uniform(low, high, n)))


@pytest.mark.parametrize("seed", STREAM_SEEDS)
@pytest.mark.parametrize("n", STREAM_LENGTHS)
def test_stream_is_default_rng_bit_for_bit(seed, n):
    _check_stream(seed, n, 0.1 - 0.05 * 6.0, 6.1 - 0.05 * 6.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**96 - 1), n=st.integers(1, 5000),
       lo=st.floats(-10.0, 10.0), span=st.floats(1e-3, 20.0))
def test_stream_is_default_rng_bit_for_bit_at_any_seed(seed, n, lo, span):
    _check_stream(seed, n, lo, lo + span)


def test_a_stream_read_past_its_end_is_refused():
    draws = pcg64.Draws(pcg64.doubles(3, 5))
    draws.uniform(0.0, 1.0, 4)
    with pytest.raises(IndexError):
        draws.uniform(0.0, 1.0, 2)


@pytest.mark.parametrize("seed", [1, 90803527, 2**70 + 11])
def test_demo_grids_are_default_rng_grids(seed):
    sc = cli.load_scenario(DEMO)
    for n in (8, 32):
        for surf in sc.surfaces.values():
            ours = cli.surface_grid(surf.domain, n, pcg64.Draws(pcg64.doubles(seed, 2 * n * n)))
            theirs = cli.surface_grid(surf.domain, n, np.random.default_rng(seed))
            assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(ours, theirs))
        for s_range in sc.curve_ranges.values():
            ours = cli.curve_grid(s_range, n, pcg64.Draws(pcg64.doubles(seed, n)))
            theirs = cli.curve_grid(s_range, n, np.random.default_rng(seed))
            assert np.array_equal(_bits(ours), _bits(theirs))


def test_random_run_gives_each_suite_the_grid_of_a_fresh_default_rng(tmp_path, monkeypatch):
    # one stream per run, sized for the suite that reads the most, and each
    # suite reads it from its start
    doc = json.loads(DEMO.read_text())
    doc["grids"] = {"surface": 6, "curve": 8, "mode": "random"}
    path = write_scenario(tmp_path, doc, "demo.json")
    sc, run = cli.load_scenario(path), []
    real_run_suite = cli.run_suite

    def spy(sc, entry, grids, tolerances, rng):
        run.append((entry, grids, tolerances, real_run_suite(sc, entry, grids, tolerances, rng)))
        return run[-1][-1]

    monkeypatch.setattr(cli, "run_suite", spy)
    cli.run_scenario(sc, tmp_path / "r", "obj", [], None, None, 11)
    assert [entry for entry, *_ in run] == sc.suites
    for entry, grids, tolerances, res in run:
        want = real_run_suite(sc, entry, grids, tolerances, np.random.default_rng(11))
        assert res.columns.keys() == want.columns.keys()
        for key, col in want.columns.items():
            if col.dtype == object:
                assert list(res.columns[key]) == list(col)
            else:
                assert np.array_equal(_bits(res.columns[key]), _bits(col), equal_nan=True)


# -- the estimated-zeta path, end to end -------------------------------------------------

# Every demo pair declares its dilation, so no demo run reaches the partials
# that dilation_jet estimates from the metric ratio.  The demo with every
# ``dilation`` taken out must give each entry the declared run's verdict,
# and each float cell within ESTIMATED_AGREE of its size.
ESTIMATED_AGREE = 1e-12
DEMO_SCENARIO = cli.load_scenario(DEMO)


@pytest.fixture(scope="module")
def dilation_free_demo(tmp_path_factory):
    doc = json.loads(DEMO.read_text())
    for pair in doc["pairs"]:
        del pair["dilation"]
    sc = cli.load_scenario(write_scenario(tmp_path_factory.mktemp("demo"), doc, "demo.json"))
    assert all(pair.dilation is None for pair in sc.pairs.values())
    return sc


@pytest.mark.parametrize("mode", ["uniform", "random"])
@pytest.mark.parametrize("entry", DEMO_SCENARIO.suites,
                         ids=lambda e: " ".join(str(v) for v in e.values()))
def test_estimated_dilation_gives_the_declared_run(entry, mode, dilation_free_demo):
    grids = {"surface": 8, "curve": 8, "mode": mode}
    got, want = (cli.run_suite(sc, entry, grids, sc.tolerances,
                               np.random.default_rng(7) if mode == "random" else None)
                 for sc in (dilation_free_demo, DEMO_SCENARIO))
    assert got.pass_ == want.pass_
    assert got.columns.keys() == want.columns.keys()
    for key, col in want.columns.items():
        if col.dtype == object:
            assert list(got.columns[key]) == list(col), key
            continue
        gap = np.abs(got.columns[key] - col)
        assert np.all((gap <= ESTIMATED_AGREE * np.maximum(1.0, np.abs(col)))
                      | (np.isnan(got.columns[key]) & np.isnan(col))), (key, np.nanmax(gap))
