import contextlib
import math
import operator
import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confgeo import exprkit
from confgeo.exprkit import (
    Binary,
    EvalDomainError,
    ExprError,
    Unary,
    Var,
    eval_grad3,
    eval_jet2,
    eval_jet3,
    evaluate,
    parse_scalar_field,
    to_text,
    walk_store,
)
from confgeo.geometry import ParamCurve, SurfacePatch, frenet

UV = ("u", "v")
S = ("s",)


# -- parsing -------------------------------------------------------------------


def test_parse_product_of_unary_calls():
    e = parse_scalar_field("sin(u)*cos(v)", UV)
    assert e.root == Binary("*", Unary("sin", Var("u")), Unary("cos", Var("v")))


def test_parse_polynomial_and_evaluate():
    e = parse_scalar_field("u^2 + 2*u*v", UV)
    assert evaluate(e, 2.0, 1.0) == 8.0


def test_unbalanced_paren_position():
    with pytest.raises(ExprError, match=r"^expected '\)' at offset 5$"):
        parse_scalar_field("sin(u", ("u",))


def test_unknown_identifier_and_function():
    with pytest.raises(ExprError, match="unknown identifier 'w'"):
        parse_scalar_field("u + w", UV)
    with pytest.raises(ExprError, match="unknown function 'foo'"):
        parse_scalar_field("foo(u)", UV)


def test_exponent_must_be_constant():
    with pytest.raises(ExprError, match="constant"):
        parse_scalar_field("u^v", UV)
    # constant sub-expressions are fine
    e = parse_scalar_field("u^(1+1)", UV)
    assert evaluate(e, 3.0, 0.0) == 9.0


def test_precedence_and_associativity():
    assert evaluate(parse_scalar_field("-u^2", UV), 2.0, 0.0) == -4.0
    assert evaluate(parse_scalar_field("2^3^2", UV), 0.0, 0.0) == 512.0
    assert evaluate(parse_scalar_field("5-3-1", UV), 0.0, 0.0) == 1.0
    assert evaluate(parse_scalar_field("u^-2", UV), 2.0, 0.0) == 0.25
    assert evaluate(parse_scalar_field("2*-3", UV), 0.0, 0.0) == -6.0


def test_empty_and_garbage_input():
    with pytest.raises(ExprError, match="^empty expression at offset 0$"):
        parse_scalar_field("", UV)
    with pytest.raises(ExprError, match="^empty expression at offset 0$"):
        parse_scalar_field("  ", UV)
    with pytest.raises(ExprError, match="^unexpected character '!' at offset 2$"):
        parse_scalar_field("u !", UV)
    with pytest.raises(ValueError, match="shadows"):
        parse_scalar_field("sin(1)", ("sin",))


def test_overflowing_literal_is_a_syntax_error():
    # every constant is finite, so an inf could only come from an operation
    with pytest.raises(ExprError, match=r"number literal '1e400' overflows at offset 2"):
        parse_scalar_field("u*1e400", UV)


@pytest.mark.parametrize("text, message, position", [
    ("1.2.3", "bad number literal '1.2.3'", 0),
    ("u v", "unexpected 'v'", 2),
    ("u+", "unexpected end of input", 2),
    ("u+*u", "unexpected '*'", 2),
])
def test_syntax_errors_name_their_offset(text, message, position):
    with pytest.raises(ExprError) as err:
        parse_scalar_field(text, UV)
    assert str(err.value) == f"{message} at offset {position}"


@pytest.mark.parametrize("variables", [("u", "u"), ("s", "t", "s")])
def test_duplicate_variable_names_are_refused(variables):
    with pytest.raises(ValueError) as err:
        parse_scalar_field("1", variables)
    assert str(err.value) == f"duplicate variable names in {variables}"


def _deep(n: int) -> dict[str, str]:
    """Expressions n levels deep, one of each shape that nests."""
    return {"calls": "sin(" * (n - 1) + "u" + ")" * (n - 1),
            "signs": "-" * (n - 1) + "u",
            "powers": "u" + "^1" * (n - 1),
            "parentheses": "(" * (n - 1) + "u" + ")" * (n - 1),
            "sum": "+".join(["u"] * n),
            "product": "*".join(["1.01"] * (n - 1) + ["u"])}


@pytest.mark.parametrize("shape", list(_deep(1)))
def test_depth_bound_is_a_syntax_error_one_level_past_it(shape):
    parse_scalar_field(_deep(exprkit.MAX_DEPTH)[shape], UV)
    with pytest.raises(ExprError, match=f"deeper than {exprkit.MAX_DEPTH} levels"):
        parse_scalar_field(_deep(exprkit.MAX_DEPTH + 1)[shape], UV)


def test_expression_at_the_depth_bound_walks_and_composes():
    n = exprkit.MAX_DEPTH
    deep = _deep(n)
    j = eval_jet2(parse_scalar_field(deep["calls"], UV), 0.7, 0.0)
    value, slope = 0.7, 1.0
    for _ in range(n - 1):
        value, slope = math.sin(value), slope * math.cos(value)
    assert (j.value, j.du) == pytest.approx((value, slope), rel=1e-13)
    assert eval_jet2(parse_scalar_field(deep["sum"], UV), 0.7, 0.0).du == float(n)
    # torsion composes the patch with the curve, a tree deeper than the
    # bound: on the plane z = 1.01^(n-1) u a circle has zero torsion
    box = ((-2.0, 2.0), (-2.0, 2.0))
    patch = SurfacePatch(*(parse_scalar_field(t, UV) for t in ("u", "v", deep["product"])), box)
    c = repr(1.0 / math.hypot(1.0, 1.01 ** (n - 1)))
    curve = ParamCurve(parse_scalar_field(f"{c}*cos(s)", S), parse_scalar_field("sin(s)", S))
    fr = frenet(patch, curve, np.linspace(0.1, 6.0, 8))
    assert np.all(abs(fr.tau) < 1e-9) and np.all(abs(fr.kappa - 1.0) < 1e-9)


# -- jets ------------------------------------------------------------------------


def test_jet2_polynomial():
    j = eval_jet2(parse_scalar_field("u^2*v", UV), 2.0, 3.0)
    assert (j.value, j.du, j.dv, j.duu, j.duv, j.dvv) == (12.0, 12.0, 4.0, 6.0, 4.0, 0.0)


def test_jet2_identity_variable():
    j = eval_jet2(parse_scalar_field("u", UV), 5.0, 7.0)
    assert (j.value, j.du, j.dv, j.duu, j.duv, j.dvv) == (5.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def test_jet2_exp_at_zero():
    j = eval_jet2(parse_scalar_field("exp(u)", UV), 0.0, 123.0)
    assert (j.value, j.du, j.duu) == (1.0, 1.0, 1.0)


def test_jet3_sine():
    j = eval_jet3(parse_scalar_field("sin(s)", S), 0.0)
    assert (j.value, j.d1, j.d2, j.d3) == (0.0, 1.0, 0.0, -1.0)


def test_jet3_identity():
    j = eval_jet3(parse_scalar_field("s", S), 2.0)
    assert (j.value, j.d1, j.d2, j.d3) == (2.0, 1.0, 0.0, 0.0)


def test_jet3_cubic():
    j = eval_jet3(parse_scalar_field("s^3", S), 1.0)
    assert (j.value, j.d1, j.d2, j.d3) == (1.0, 3.0, 6.0, 6.0)


def test_grad3_inversion_component():
    g = eval_grad3(parse_scalar_field("x/(x^2+y^2+z^2)", ("x", "y", "z")), 0.0, 0.0, 1.0)
    assert (g.value, g.gx, g.gy, g.gz) == (0.0, 1.0, 0.0, 0.0)


def test_domain_errors_name_the_node():
    with pytest.raises(EvalDomainError, match="log"):
        eval_jet2(parse_scalar_field("log(u)", UV), -1.0, 0.0)
    with pytest.raises(EvalDomainError, match="division by zero"):
        eval_jet2(parse_scalar_field("1/(u-1)", UV), 1.0, 0.0)
    with pytest.raises(EvalDomainError, match="sqrt"):
        eval_jet3(parse_scalar_field("sqrt(s)", S), -4.0)
    with pytest.raises(EvalDomainError, match="negative power"):
        evaluate(parse_scalar_field("u^-1", UV), 0.0, 0.0)


@pytest.mark.parametrize("walk, order", [(eval_jet2, -1), (eval_jet2, 3), (eval_jet3, -1),
                                          (eval_jet3, 4)])
def test_an_order_past_the_table_is_an_expression_error(walk, order):
    e = parse_scalar_field("u*v", UV) if walk is eval_jet2 else parse_scalar_field("s*s", S)
    top = 2 if walk is eval_jet2 else 3
    with pytest.raises(ExprError, match=rf"{walk.__name__} takes an order from 0 to {top}, "
                                        rf"got {order}$"):
        walk(e, *[0.5] * len(e.variables), order)


@pytest.mark.parametrize("exprs", [(), (parse_scalar_field("u", UV),
                                       parse_scalar_field("x", ("x", "y")))])
def test_a_walk_is_over_one_tuple_of_variables(exprs):
    # no roots, or roots over two tuples of variables, would seed the walk
    # from nothing or from the first root's names alone
    with pytest.raises(ExprError, match=r"^eval_jet2 needs expressions over one tuple of "
                                        r"2 variable\(s\), got "):
        eval_jet2(exprs, 0.5, 0.25)


def test_a_walk_of_two_roots_names_the_first_failing_root_at_its_own_first_point():
    # each root alone: log(u) fails first at (-1, 1), log(v) at (1, -1).  A
    # search over both roots at once would find the earlier point of log(v)
    x, y = parse_scalar_field("log(u)", UV), parse_scalar_field("log(v)", UV)
    u, v = np.array([1.0, 1.0, -1.0]), np.array([1.0, -1.0, 1.0])
    with pytest.raises(EvalDomainError) as both:
        eval_jet2((x, y), u, v)
    assert str(both.value) == ("log of a non-positive value in sub-expression 'log(u)' "
                               "at (-1.0, 1.0)")
    assert both.value.node_text == "log(u)" and both.value.point == (-1.0, 1.0)
    # a root that passes does not move the error of the one after it
    with pytest.raises(EvalDomainError) as second:
        eval_jet2((parse_scalar_field("u", UV), y), u, v)
    assert second.value.node_text == "log(v)" and second.value.point == (1.0, -1.0)


def test_expressions_of_one_node_table_share_subtrees_and_walk_to_the_same_bits():
    nodes = {}
    shared = tuple(parse_scalar_field(t, UV, nodes) for t in ("u^2+2*v", "2*v+u^2"))
    apart = tuple(parse_scalar_field(t, UV) for t in ("u^2+2*v", "2*v+u^2"))
    assert shared[0].root.left is shared[1].root.right  # one u^2
    assert apart[0].root.left is not apart[1].root.right
    u, v = np.random.default_rng(3).uniform(-2.0, 2.0, (2, 16))
    for order in (0, 1, 2):
        for at in [(u, v)] + [(float(a), float(b)) for a, b in zip(u, v)]:
            together = eval_jet2(shared, *at, order)
            for jet, alone in zip(together, (eval_jet2(e, *at, order) for e in apart)):
                for x, y in zip(jet, alone):
                    assert (x is None) == (y is None)
                    if x is not None:
                        assert np.array_equal(np.asarray(x).view(np.uint64),
                                              np.asarray(y).view(np.uint64))


def test_an_exponent_shared_with_an_operand_is_walked_apart_from_it():
    # (1+1) is one node: the exponent of u^(1+1), walked as a constant, and
    # a factor of (1+1)*v, walked to order 2
    e = parse_scalar_field("u^(1+1)+(1+1)*v", UV)
    assert e.root.left.right is e.root.right.left
    assert tuple(eval_jet2(e, 3.0, 5.0)) == (19.0, 6.0, 2.0, 2.0, 0.0, 0.0)


def test_fractional_power_at_zero_names_the_derivative():
    e = parse_scalar_field("u^0.5", UV)
    assert evaluate(e, 0.0, 1.0) == 0.0
    with pytest.raises(EvalDomainError) as err:
        eval_jet2(e, 0.0, 1.0)
    assert str(err.value) == ("derivative of order 1 is infinite at a zero base "
                              "in sub-expression '(u^0.5)' at (0.0, 1.0)")
    # a jet needs only its own orders: u^2.5 has two derivatives at zero, not three
    j = eval_jet2(parse_scalar_field("u^2.5", UV), 0.0, 1.0)
    assert (j.value, j.du, j.duu) == (0.0, 0.0, 0.0)
    with pytest.raises(EvalDomainError, match="derivative of order 3"):
        eval_jet3(parse_scalar_field("s^2.5", S), 0.0)


def test_sqrt_at_zero_names_its_infinite_derivative_and_the_point():
    e = parse_scalar_field("sqrt(u)", UV)
    assert evaluate(e, 0.0, 0.5) == 0.0
    for u, v in ((0.0, 0.5), (np.array([1.0, 0.0]), np.array([0.5, 0.5]))):
        with pytest.raises(EvalDomainError) as err:
            eval_jet2(e, u, v, 1)
        assert str(err.value) == ("derivative of sqrt is infinite at zero "
                                  "in sub-expression 'sqrt(u)' at (0.0, 0.5)")


def test_jet_chain_rule_on_composite():
    # d/du sin(u^2) = 2u cos(u^2); second: 2cos(u^2) - 4u^2 sin(u^2)
    j = eval_jet2(parse_scalar_field("sin(u^2)", UV), 0.7, 0.0)
    assert j.du == pytest.approx(2 * 0.7 * math.cos(0.49), abs=1e-15)
    assert j.duu == pytest.approx(2 * math.cos(0.49) - 4 * 0.49 * math.sin(0.49), abs=1e-15)


# -- properties -------------------------------------------------------------------


def _exprs(depth: int):
    leaf = st.one_of(
        st.sampled_from(["u", "v"]),
        st.floats(0.1, 2.5, allow_nan=False).map(lambda x: repr(round(x, 3))),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: f"({t[1]}{t[0]}{t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "tanh"]), sub).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(sub, st.sampled_from(["2", "3"])).map(lambda t: f"({t[0]})^{t[1]}"),
    )


@settings(max_examples=60, deadline=None)
@given(text=_exprs(3))
def test_roundtrip_through_pretty_printer(text):
    e1 = parse_scalar_field(text, UV)
    e2 = parse_scalar_field(to_text(e1), UV)
    rng = np.random.default_rng(7)
    for _ in range(100):
        u, v = rng.uniform(-2, 2, 2)
        try:
            a = evaluate(e1, u, v)
        except (EvalDomainError, OverflowError):
            continue
        assert evaluate(e2, u, v) == a


@st.composite
def _polynomials(draw):
    n = draw(st.integers(1, 4))
    terms = []
    for _ in range(n):
        i = draw(st.integers(0, 4))
        j = draw(st.integers(0, 4 - i))
        c = draw(st.floats(-2, 2).filter(lambda x: abs(x) > 1e-3))
        terms.append(f"{c!r}*u^{i}*v^{j}")
    return " + ".join(terms)


@settings(max_examples=60, deadline=None)
@given(text=_polynomials(),
       u=st.floats(-1.2, 1.2), v=st.floats(-1.2, 1.2))
def test_polynomial_first_partials_match_fd(text, u, v):
    from oracles import fd_partial

    e = parse_scalar_field(text, UV)
    j = eval_jet2(e, u, v)
    for idx, got in (((1, 0), j.du), ((0, 1), j.dv)):
        ref = fd_partial(e, (u, v), idx, step=1e-5)
        assert abs(ref - got) / max(1.0, abs(got)) < 1e-6


# -- the store of walks ----------------------------------------------------------


def test_a_walk_in_a_store_is_the_walk_outside_one(walks):
    # a walk is made on every call, kept nowhere, and its arrays stay
    # writeable, as outside a store
    a, b = parse_scalar_field("sin(u)*v", UV), parse_scalar_field("u*v", UV)
    u, v = np.linspace(0.0, 1.0, 5), np.linspace(1.0, 2.0, 5)
    plain = eval_jet2((a, b), u, v)
    with walk_store({}) as store:
        first = eval_jet2((a, b), u, v)
        again = eval_jet2((a, b), u.copy(), v.copy())  # the same bits in other arrays
        assert not store and [e for e, _ in walks] == [a, b] * 3  # walked on every call
    for jets in zip(plain, first, again):
        for x, y, z in zip(*jets):
            assert x.flags.writeable and y.flags.writeable and z.flags.writeable
            assert y is not z and x.tobytes() == y.tobytes() == z.tobytes()


def test_store_keys_a_writeable_array_by_its_bits():
    calls = []

    @exprkit.derived
    def same(x):
        calls.append(x)
        return x

    quiet = np.array([math.nan])
    loud = (quiet.view(np.uint64) | np.uint64(1)).view(np.float64)
    grids = [np.array([0.0]), np.array([-0.0]), quiet, loud, np.array(0.5), np.array([0.5])]
    with walk_store({}) as store:
        for grid in grids:
            got = same(grid)
            assert got.shape == grid.shape and got.tobytes() == grid.tobytes()
            assert same(grid.copy()) is got  # the same bits in another array
        assert len(store) == len(calls) == 6


def test_store_keys_a_read_only_array_by_its_bits():
    # a read-only array, as a kept value is, is keyed as a writeable one:
    # a read-only copy with its bits hits, and so does a broadcast view
    calls = []

    @exprkit.derived
    def squared(x):
        calls.append(x)
        return x * x

    with walk_store({}) as store:
        values = evaluate(parse_scalar_field("s+1", S), np.linspace(0.0, 1.0, 4))
        first = squared(values)
        frozen = values.copy()
        frozen.flags.writeable = False
        assert squared(frozen) is first and squared(values.copy()) is first
        # a broadcast view's flags would warn when read: the key reads none
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            view = np.broadcast_arrays(np.array([1.0]), np.array(2.0))[1]
            assert squared(view) is squared(np.array([2.0]))
        assert len(calls) == len(store) == 2


def test_store_keeps_no_failed_walk():
    e = parse_scalar_field("log(s)", S)
    messages = []
    with walk_store({}) as store:
        for _ in range(2):
            with pytest.raises(EvalDomainError) as err:
                evaluate(e, np.array([1.0, -1.0]))
            messages.append(str(err.value))
        assert not store
    assert messages[0] == messages[1]
    assert "log of a non-positive value" in messages[0] and "-1.0" in messages[0]


def test_kept_coefficients_are_read_only_and_the_grid_is_not():
    # a walk's coefficients as a derived value keeps them: the bare
    # variable's value is the caller's grid, which the store copies
    @exprkit.derived
    def jets(e, s):
        return eval_jet3(e, s)

    s = np.linspace(0.0, 1.0, 4)
    with walk_store({}):
        bare = jets(parse_scalar_field("s", S), s)
        square = jets(parse_scalar_field("s*s", S), s)
    for x in (bare.value, bare.d1, square.value, square.d2):
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 9.0
    s[0] = 9.0  # the caller's grid stays writeable
    assert bare.value[0] == 0.0  # and the store kept its own copy of it


def test_store_is_not_seen_by_another_thread():
    seen = []
    with walk_store({}) as store:
        worker = threading.Thread(target=lambda: seen.append(exprkit._STORE.get()))
        worker.start()
        worker.join(timeout=10.0)
        assert exprkit._STORE.get() is store
    assert not worker.is_alive() and seen == [None]
    assert exprkit._STORE.get() is None


# -- derived values in the store ---------------------------------------------------


def test_store_keeps_a_derived_value_by_its_arguments():
    calls = []

    @exprkit.derived
    def scaled(x, k):
        calls.append(k)
        return x * k

    x = np.linspace(0.0, 1.0, 4)
    plain = scaled(x, 2)
    with walk_store({}) as store:
        first = scaled(x, 2)
        # a writeable array by its bits
        assert scaled(x.copy(), 2) is first
        with pytest.raises(TypeError):  # positional arguments only
            scaled(x, k=2)
        assert len(calls) == 2 and len(store) == 1
        # a read-only array, as every kept value is, by its bits too
        assert scaled(first, 2) is scaled(first.copy(), 2) and len(calls) == 3
        scaled(x, 3)  # another argument
        assert len(calls) == 4 and len(store) == 3
        # any other argument by identity, a tuple too: an equal one is another key
        k = tuple([2])
        assert scaled(x, k) is scaled(x, k) and len(calls) == 5
        assert scaled(x, tuple([2])) is not scaled(x, k) and len(calls) == 6
    assert scaled(x, 2) is not first and len(calls) == 7  # outside the block nothing is kept
    assert np.array_equal(plain.view(np.uint64), first.view(np.uint64))


def test_a_kept_derived_value_is_read_only_and_its_arguments_are_not():
    @exprkit.derived
    def parts(x, y):
        return x, exprkit.Jet2(x + y, du=y)  # an argument itself, and one in a record

    x, y = np.linspace(0.0, 1.0, 4), np.ones(4)
    with walk_store({}):
        same, jet = parts(x, y)
        assert parts(x, y)[1] is jet
    for kept in (same, jet.value, jet.du):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 9.0
    assert same is not x and jet.du is not y  # the store keeps copies of its arguments
    x[0] = y[0] = 9.0  # which stay writeable
    assert same[0] == 0.0 and jet.du[0] == 1.0


def test_store_keeps_no_derived_call_that_raised():
    calls, e = [], parse_scalar_field("log(s)", S)

    @exprkit.derived
    def logs(s):
        calls.append(s)
        return evaluate(e, s)

    messages = []
    with walk_store({}) as store:
        for _ in range(2):
            with pytest.raises(EvalDomainError) as err:
                logs(np.array([1.0, -1.0]))
            messages.append(str(err.value))
        assert not store and len(calls) == 2
    assert messages[0] == messages[1]
    assert "log of a non-positive value" in messages[0] and "-1.0" in messages[0]


# -- sparse jets -----------------------------------------------------------------
#
# The dense arithmetic that sparse jets replaced forms every term, a
# structural zero or unit factor included: the reference for every
# coefficient.


def _dense_mul(f, g, tab):
    out, g0 = [], g[0]
    for fa, rest in zip(f, tab.leibniz):
        x = fa * g0
        for c, i, j in rest:
            x = x + (f[i] if c == 1.0 else c * f[i]) * g[j]
        out.append(x)
    return out


def _dense_div(f, g, tab):
    g0 = g[0]
    if np.any(g0 == 0.0):
        raise exprkit._JetDomain("division by zero")
    q = []
    for x, rest in zip(f, tab.leibniz):
        for c, i, j in rest:
            x = x - (q[i] if c == 1.0 else c * q[i]) * g[j]
        q.append(x / g0)
    return q


def _dense_chain(c, g, tab):
    out = [c[0]]
    for terms in tab.faa:
        x = None
        for n, k, blocks in terms:
            t = c[k] if n == 1.0 else n * c[k]
            for b in blocks:
                t = t * g[b]
            x = t if x is None else x + t
        out.append(x)
    return out


@contextlib.contextmanager
def _dense():
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in (("_mul", _dense_mul), ("_div", _dense_div), ("_chain", _dense_chain),
                         ("_plus", operator.add), ("_minus", operator.sub)):
            mp.setattr(exprkit, name, fn)
        yield


def _sparse_exprs(depth: int):
    # constants 0 and 1 and a constant call, so that structural zeros and
    # units meet np.float64 constants of the same values
    leaf = st.sampled_from(["u", "v", "0", "1", "2", "0.5", "sin(2)"])
    if depth == 0:
        return leaf
    sub = _sparse_exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: f"({t[1]}{t[0]}{t[2]})"),
        st.tuples(st.sampled_from(exprkit.FUNCTIONS + ("-",)), sub)
        .map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(sub, st.sampled_from(["0", "1", "2", "3", "-1", "0.5", "2.5"]))
        .map(lambda t: f"({t[0]})^{t[1]}"),
    )


_SIGNED_GRID = st.lists(st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.5, 1.25, 2.0]),
                        min_size=3, max_size=3).map(np.array)


def _jet_or_error(e, u, v, order):
    try:
        return eval_jet2(e, u, v, order)
    except EvalDomainError as err:
        return err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_sparse_exprs(3), u=_SIGNED_GRID, v=_SIGNED_GRID, order=st.integers(0, 2))
def test_sparse_jets_equal_the_dense_arithmetic(text, u, v, order):
    e = parse_scalar_field(text, UV)
    got = _jet_or_error(e, u, v, order)
    with _dense():
        want = _jet_or_error(e, u, v, order)
    # both raise the same error or neither does; a coefficient may differ
    # only in the sign of a zero
    assert isinstance(got, EvalDomainError) == isinstance(want, EvalDomainError)
    if isinstance(got, EvalDomainError):
        assert str(got) == str(want)
    else:
        for a, b in zip(got, want):
            assert (a is None and b is None) or np.array_equal(a, b)


def test_a_structural_zero_is_a_float_until_the_fill():
    e = parse_scalar_field("cosh(v)", UV)
    u, v = np.array([0.5, 1.0]), np.array([-0.5, -2.0])
    (jet,) = exprkit._walk((e,), 2)([u, v])
    assert type(jet[1]) is float and jet[1] == 0.0  # du: sinh(v) * 0.0 is never formed
    du = eval_jet2(e, u, v).du
    assert du.shape == (2,) and np.array_equal(du, [0.0, 0.0]) and not np.signbit(du).any()
    with _dense():  # the dense product of a negative sinh(v) and 0.0 is -0.0
        assert np.signbit(eval_jet2(e, u, v).du).all()


def test_walks_leave_the_callers_grid_unchanged():
    u, v = np.array([-1.0, -0.0, 0.5]), np.array([2.0, 0.0, -3.0])
    was = u.tobytes(), v.tobytes()
    exprs = [parse_scalar_field(t, UV) for t in ("u*v + u", "exp(u)", "u")]
    for e in exprs:
        eval_jet2(e, u, v)
    with walk_store({}):
        for e in exprs:
            eval_jet2(e, u, v)
        du = eval_jet2(parse_scalar_field("u*v", UV), u, v).du  # d(uv)/du is the grid's v
    assert (u.tobytes(), v.tobytes()) == was and u.flags.writeable and v.flags.writeable
    # a walk in a store touches the grid no more than one outside it does
    assert du.tobytes() == v.tobytes() and du.flags.writeable


@pytest.mark.parametrize("text", ["2*u", "u*v", "sin(2)+u"])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_a_walk_refuses_a_non_finite_point(text, bad):
    with pytest.raises(EvalDomainError) as err:
        eval_jet2(parse_scalar_field(text, UV), bad, 1.0)
    assert str(err.value) == f"non-finite value in sub-expression 'u' at ({bad!r}, 1.0)"


def test_a_walk_names_the_first_non_finite_grid_point():
    e = parse_scalar_field("u*v", UV)
    u, v = np.array([0.5, 0.7, math.inf, 0.9]), np.array([1.0, -math.inf, 1.0, math.nan])
    for store in (None, {}):
        with walk_store(store):
            with pytest.raises(EvalDomainError) as err:
                eval_jet2(e, u, v)
        assert err.value.point == (0.7, -math.inf)
        assert str(err.value).startswith("non-finite value in sub-expression 'v'")


def test_a_walk_checks_only_the_variables_its_roots_read():
    # v is declared but 2*u never reads it: a NaN there is no error, and
    # the jet is the one any finite v gives
    j = eval_jet2(parse_scalar_field("2*u", UV), 1.0, math.nan)
    assert [float(x) for x in j] == [2.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    assert all(type(x) is np.ndarray and x.shape == () for x in j)


@pytest.mark.parametrize("text, point, name", [("u*v", (math.nan, 1.0), "u"),
                                               ("u + 0*v", (1.0, math.inf), "v")])
def test_a_walk_refuses_a_non_finite_value_it_reads(text, point, name):
    with pytest.raises(EvalDomainError) as err:
        eval_jet2(parse_scalar_field(text, UV), *point)
    assert str(err.value) == f"non-finite value in sub-expression '{name}' at {point!r}"


def test_the_variables_read_are_set_when_the_expression_is_made(monkeypatch):
    e = parse_scalar_field("2*u", UV)
    composed = exprkit.substitute(e, {"u": parse_scalar_field("s^2", S),
                                      "v": parse_scalar_field("t", ("t",))})
    assert e.reads == {"u"} and composed.variables == ("s", "t") and composed.reads == {"s"}
    # a walk reads those sets and traverses no tree for them
    monkeypatch.setattr(exprkit, "variables_of", None)
    assert float(evaluate(composed, 3.0, math.inf)) == 18.0


ENTRY_POINTS = [(eval_jet2, "u*exp(v) + v^2", UV), (evaluate, "u*exp(v) + v^2", UV),
                (eval_grad3, "x*y - sin(z)", ("x", "y", "z"))]


@pytest.mark.parametrize("entry, text, variables", ENTRY_POINTS,
                         ids=[f[0].__name__ for f in ENTRY_POINTS])
def test_grid_arrays_of_mixed_shapes_are_refused(entry, text, variables):
    # a grid is arrays of one shape: a float beside an array is a mixed grid,
    # as are two arrays that numpy would broadcast
    e = parse_scalar_field(text, variables)
    grid = np.array([0.25, -0.5, 1.5])
    for i in range(len(variables)):
        for other in (0.5, np.full((1, 3), 0.5)):
            mixed = [grid if j == i else other for j in range(len(variables))]
            shapes = [np.shape(x) for x in mixed]
            with pytest.raises(ExprError, match=re.escape(
                    f"{entry.__name__} needs grid arrays of one shape, got {shapes}")):
                entry(e, *mixed)
