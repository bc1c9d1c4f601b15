import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confgeo.exprkit import (
    Binary,
    EvalDomainError,
    ExprNameError,
    ExprSyntaxError,
    Unary,
    Var,
    eval_grad3,
    eval_jet2,
    eval_jet3,
    evaluate,
    parse_scalar_field,
    to_text,
)

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
    with pytest.raises(ExprSyntaxError) as exc:
        parse_scalar_field("sin(u", ("u",))
    assert exc.value.position == 5


def test_unknown_identifier_and_function():
    with pytest.raises(ExprNameError, match="unknown identifier 'w'"):
        parse_scalar_field("u + w", UV)
    with pytest.raises(ExprNameError, match="unknown function 'foo'"):
        parse_scalar_field("foo(u)", UV)


def test_exponent_must_be_constant():
    with pytest.raises(ExprSyntaxError, match="constant"):
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
    with pytest.raises(ExprSyntaxError):
        parse_scalar_field("", UV)
    with pytest.raises(ExprSyntaxError):
        parse_scalar_field("  ", UV)
    with pytest.raises(ExprSyntaxError):
        parse_scalar_field("u !", UV)
    with pytest.raises(ValueError, match="shadows"):
        parse_scalar_field("sin(1)", ("sin",))


def test_overflowing_literal_is_a_syntax_error():
    # every constant is finite, so an inf could only come from an operation
    with pytest.raises(ExprSyntaxError, match=r"number literal '1e400' overflows at offset 2"):
        parse_scalar_field("u*1e400", UV)


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
    from confgeo.calculus import fd_partial

    e = parse_scalar_field(text, UV)
    j = eval_jet2(e, u, v)
    for idx, got in (((1, 0), j.du), ((0, 1), j.dv)):
        ref = fd_partial(e, (u, v), idx, step=1e-5)
        assert abs(ref - got) / max(1.0, abs(got)) < 1e-6
