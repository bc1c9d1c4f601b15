"""Scalar-field expressions in named variables, with exact forward-mode jets.

The expression language is deliberately small: real constants, declared
variables, the unary functions sin/cos/tan/exp/log/sqrt/sinh/cosh/tanh,
unary minus, and the binary operators + - * / ^ (exponent restricted to
constant sub-expressions).  Trees are immutable after parse and evaluation
is pure, so expressions can be shared freely across threads.

``eval_jet2``, ``eval_jet3``, ``eval_grad3`` and ``evaluate`` take float64
arrays (a grid of points, evaluated in one tree walk, as in vector forward
mode).  There is one numeric path, numpy's: a point is a grid of one
(floats enter as 0-d arrays), and constants are ``np.float64`` scalars
that broadcast, so numpy's floating-point checks see every operation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Union

import numpy as np


class ExprError(Exception):
    """Base class for expression parsing/evaluation failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class ExprNameError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class EvalDomainError(ExprError):
    """Raised when evaluation leaves the domain of some node (log of a
    non-positive value, division by zero, sqrt of a negative, overflow, ...).
    ``point`` holds the variable values where it happened, when known."""

    def __init__(self, reason: str, node_text: str, point: tuple | None = None):
        where = "" if point is None else f" at ({', '.join(map(repr, point))})"
        super().__init__(f"{reason} in sub-expression '{node_text}'{where}")
        self.reason = reason
        self.node_text = node_text
        self.point = point


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a function name
    arg: "Node"


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


Node = Union[Const, Var, Unary, Binary]

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh")


@dataclass(frozen=True)
class Expr:
    """A parsed scalar field: immutable node tree plus its declared variables."""

    root: Node
    variables: tuple[str, ...]


def variables_of(node: Node) -> set[str]:
    if isinstance(node, Const):
        return set()
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return variables_of(node.arg)
    return variables_of(node.left) | variables_of(node.right)


# ---------------------------------------------------------------------------
# Tokenizer / parser

_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ExprSyntaxError(f"bad number literal '{lit}'", i) from None
            if not np.isfinite(value):
                raise ExprSyntaxError(f"number literal '{lit}' overflows", i)
            tokens.append(("num", lit, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character '{c}'", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], variables: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprSyntaxError(f"expected '{op}'", pos)
        self.advance()

    def parse(self) -> Node:
        node = self.additive()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected '{text}'", pos)
        return node

    def additive(self) -> Node:
        node = self.multiplicative()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(text, node, self.multiplicative())
            else:
                return node

    def multiplicative(self) -> Node:
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.unary()  # right-associative
            if variables_of(exponent):
                raise ExprSyntaxError("exponent of '^' must be a constant expression", pos)
            return Binary("^", base, exponent)
        return base

    def atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Const(float(text))
        if kind == "name":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ExprNameError(f"unknown function '{text}'", pos)
                self.advance()
                arg = self.additive()
                self.expect_op(")")
                return Unary(text, arg)
            if text not in self.variables:
                raise ExprNameError(f"unknown identifier '{text}'", pos)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.additive()
            self.expect_op(")")
            return node
        if kind == "eof":
            raise ExprSyntaxError("unexpected end of input", pos)
        raise ExprSyntaxError(f"unexpected '{text}'", pos)


def parse_scalar_field(text: str, variables) -> Expr:
    """Parse ``text`` into an :class:`Expr` over the declared variables.

    Grammar: infix with precedence ``^`` > unary ``-`` > ``* /`` > ``+ -``,
    left-associative except ``^`` (right-associative), parentheses and
    ``f(x)`` function calls.
    """
    varnames = tuple(variables)
    if len(set(varnames)) != len(varnames):
        raise ValueError(f"duplicate variable names in {varnames}")
    for name in varnames:
        if name in FUNCTIONS:
            raise ValueError(f"variable name '{name}' shadows a function")
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    root = _Parser(_tokenize(text), varnames).parse()
    return Expr(root, varnames)


def to_text(e: Expr | Node) -> str:
    """Render an expression to re-parseable text (fully parenthesized)."""
    node = e.root if isinstance(e, Expr) else e
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"(-{to_text(node.arg)})"
        return f"{node.op}({to_text(node.arg)})"
    return f"({to_text(node.left)}{node.op}{to_text(node.right)})"


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace variables by sub-expressions (used to compose patch and curve)."""

    def rec(node: Node) -> Node:
        if isinstance(node, Const):
            return node
        if isinstance(node, Var):
            repl = mapping.get(node.name)
            return repl.root if repl is not None else node
        if isinstance(node, Unary):
            return Unary(node.op, rec(node.arg))
        return Binary(node.op, rec(node.left), rec(node.right))

    new_vars: list[str] = []
    for name in e.variables:
        if name in mapping:
            for inner in mapping[name].variables:
                if inner not in new_vars:
                    new_vars.append(inner)
        elif name not in new_vars:
            new_vars.append(name)
    return Expr(rec(e.root), tuple(new_vars))


# ---------------------------------------------------------------------------
# Jet arithmetic

class _JetDomain(Exception):
    """Internal: domain violation inside a jet operation (no node context)."""


def _powf(base, expo: float):
    # base**expo with Taylor-friendly conventions: 0^0 == 1.
    if expo == 0.0:
        return 1.0
    if expo < 0.0 and np.any(base == 0.0):
        raise _JetDomain("zero base raised to a negative power")
    if expo != round(expo) and np.any(base < 0.0):
        raise _JetDomain("negative base raised to a non-integer power")
    return np.power(base, expo)


def _pow_coeffs(v, p: float, order: int) -> list:
    # Derivative coefficients of x^p at v, orders 0..order; a zero prefactor
    # short-circuits so 0^negative is never formed for integer p.  Past
    # order 0 a zero base is the derivative's fault, not the user's power.
    out = []
    coef = 1.0
    for k in range(order + 1):
        if coef == 0.0:
            out.append(0.0)
        elif k and p - k < 0.0 and np.any(v == 0.0):
            raise _JetDomain(f"derivative of order {k} is infinite at a zero base")
        else:
            out.append(coef * _powf(v, p - k))
        coef *= p - k
    return out


def _fn_coeffs(name: str, v) -> tuple:
    # (f, f', f'', f''') of the named unary function at v.
    if name == "sin":
        s, c = np.sin(v), np.cos(v)
        return s, c, -s, -c
    if name == "cos":
        s, c = np.sin(v), np.cos(v)
        return c, -s, -c, s
    if name == "tan":
        t = np.tan(v)
        d = 1.0 + t * t
        return t, d, 2.0 * t * d, (2.0 + 6.0 * t * t) * d
    if name == "exp":
        ev = np.exp(v)
        return ev, ev, ev, ev
    if name == "log":
        if np.any(v <= 0.0):
            raise _JetDomain("log of a non-positive value")
        return np.log(v), 1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v)
    if name == "sqrt":
        if np.any(v <= 0.0):
            raise _JetDomain("sqrt of a non-positive value")
        r = np.sqrt(v)
        return r, 0.5 / r, -0.25 / (r * v), 0.375 / (r * v * v)
    if name == "sinh":
        return np.sinh(v), np.cosh(v), np.sinh(v), np.cosh(v)
    if name == "cosh":
        return np.cosh(v), np.sinh(v), np.cosh(v), np.sinh(v)
    if name == "tanh":
        t = np.tanh(v)
        # sech^2 from exp(-2|v|): 1 - t*t cancels to nothing as |t| -> 1
        ev = np.exp(-2.0 * abs(v))
        d = 4.0 * ev / ((1.0 + ev) * (1.0 + ev))
        return t, d, -2.0 * t * d, (6.0 * t * t - 2.0) * d
    raise ValueError(f"no such function '{name}'")


class Jet2:
    """Value and exact partial derivatives to order 2 in two variables;
    each field holds the grid's values (0-d at a point)."""

    __slots__ = ("value", "du", "dv", "duu", "duv", "dvv")

    def __init__(self, value, du=0.0, dv=0.0, duu=0.0, duv=0.0, dvv=0.0):
        self.value = value
        self.du = du
        self.dv = dv
        self.duu = duu
        self.duv = duv
        self.dvv = dvv

    def __repr__(self):
        return (f"Jet2({self.value!r}, du={self.du!r}, dv={self.dv!r}, "
                f"duu={self.duu!r}, duv={self.duv!r}, dvv={self.dvv!r})")

    def __add__(self, o):
        return Jet2(self.value + o.value, self.du + o.du, self.dv + o.dv,
                    self.duu + o.duu, self.duv + o.duv, self.dvv + o.dvv)

    def __sub__(self, o):
        return Jet2(self.value - o.value, self.du - o.du, self.dv - o.dv,
                    self.duu - o.duu, self.duv - o.duv, self.dvv - o.dvv)

    def __neg__(self):
        return Jet2(-self.value, -self.du, -self.dv, -self.duu, -self.duv, -self.dvv)

    def __mul__(self, o):
        return Jet2(
            self.value * o.value,
            self.du * o.value + self.value * o.du,
            self.dv * o.value + self.value * o.dv,
            self.duu * o.value + 2.0 * self.du * o.du + self.value * o.duu,
            self.duv * o.value + self.du * o.dv + self.dv * o.du + self.value * o.duv,
            self.dvv * o.value + 2.0 * self.dv * o.dv + self.value * o.dvv,
        )

    def __truediv__(self, o):
        if np.any(o.value == 0.0):
            raise _JetDomain("division by zero")
        q = self.value / o.value
        qu = (self.du - q * o.du) / o.value
        qv = (self.dv - q * o.dv) / o.value
        quu = (self.duu - 2.0 * qu * o.du - q * o.duu) / o.value
        quv = (self.duv - qu * o.dv - qv * o.du - q * o.duv) / o.value
        qvv = (self.dvv - 2.0 * qv * o.dv - q * o.dvv) / o.value
        return Jet2(q, qu, qv, quu, quv, qvv)

    def _chain(self, c0, c1, c2):
        return Jet2(
            c0,
            c1 * self.du,
            c1 * self.dv,
            c2 * self.du * self.du + c1 * self.duu,
            c2 * self.du * self.dv + c1 * self.duv,
            c2 * self.dv * self.dv + c1 * self.dvv,
        )

    def pow_const(self, p: float):
        return self._chain(*_pow_coeffs(self.value, p, 2))

    def apply(self, name: str):
        c0, c1, c2, _ = _fn_coeffs(name, self.value)
        return self._chain(c0, c1, c2)


class Jet3:
    """Value and exact derivatives to order 3 in one variable; each field
    holds the grid's values (0-d at a point)."""

    __slots__ = ("value", "d1", "d2", "d3")

    def __init__(self, value, d1=0.0, d2=0.0, d3=0.0):
        self.value = value
        self.d1 = d1
        self.d2 = d2
        self.d3 = d3

    def __repr__(self):
        return f"Jet3({self.value!r}, d1={self.d1!r}, d2={self.d2!r}, d3={self.d3!r})"

    def __add__(self, o):
        return Jet3(self.value + o.value, self.d1 + o.d1, self.d2 + o.d2, self.d3 + o.d3)

    def __sub__(self, o):
        return Jet3(self.value - o.value, self.d1 - o.d1, self.d2 - o.d2, self.d3 - o.d3)

    def __neg__(self):
        return Jet3(-self.value, -self.d1, -self.d2, -self.d3)

    def __mul__(self, o):
        return Jet3(
            self.value * o.value,
            self.d1 * o.value + self.value * o.d1,
            self.d2 * o.value + 2.0 * self.d1 * o.d1 + self.value * o.d2,
            self.d3 * o.value + 3.0 * self.d2 * o.d1 + 3.0 * self.d1 * o.d2 + self.value * o.d3,
        )

    def __truediv__(self, o):
        if np.any(o.value == 0.0):
            raise _JetDomain("division by zero")
        q = self.value / o.value
        q1 = (self.d1 - q * o.d1) / o.value
        q2 = (self.d2 - 2.0 * q1 * o.d1 - q * o.d2) / o.value
        q3 = (self.d3 - 3.0 * q2 * o.d1 - 3.0 * q1 * o.d2 - q * o.d3) / o.value
        return Jet3(q, q1, q2, q3)

    def _chain(self, c0, c1, c2, c3):
        f1, f2, f3 = self.d1, self.d2, self.d3
        return Jet3(
            c0,
            c1 * f1,
            c2 * f1 * f1 + c1 * f2,
            c3 * f1 * f1 * f1 + 3.0 * c2 * f1 * f2 + c1 * f3,
        )

    def pow_const(self, p: float):
        return self._chain(*_pow_coeffs(self.value, p, 3))

    def apply(self, name: str):
        return self._chain(*_fn_coeffs(name, self.value))


class Grad3:
    """Value and first partials in three variables (ambient-map Jacobians);
    each field holds the grid's values (0-d at a point)."""

    __slots__ = ("value", "gx", "gy", "gz")

    def __init__(self, value, gx=0.0, gy=0.0, gz=0.0):
        self.value = value
        self.gx = gx
        self.gy = gy
        self.gz = gz

    def __add__(self, o):
        return Grad3(self.value + o.value, self.gx + o.gx, self.gy + o.gy, self.gz + o.gz)

    def __sub__(self, o):
        return Grad3(self.value - o.value, self.gx - o.gx, self.gy - o.gy, self.gz - o.gz)

    def __neg__(self):
        return Grad3(-self.value, -self.gx, -self.gy, -self.gz)

    def __mul__(self, o):
        return Grad3(
            self.value * o.value,
            self.gx * o.value + self.value * o.gx,
            self.gy * o.value + self.value * o.gy,
            self.gz * o.value + self.value * o.gz,
        )

    def __truediv__(self, o):
        if np.any(o.value == 0.0):
            raise _JetDomain("division by zero")
        q = self.value / o.value
        return Grad3(
            q,
            (self.gx - q * o.gx) / o.value,
            (self.gy - q * o.gy) / o.value,
            (self.gz - q * o.gz) / o.value,
        )

    def _chain(self, c0, c1):
        return Grad3(c0, c1 * self.gx, c1 * self.gy, c1 * self.gz)

    def pow_const(self, p: float):
        return self._chain(*_pow_coeffs(self.value, p, 1))

    def apply(self, name: str):
        c0, c1, _, _ = _fn_coeffs(name, self.value)
        return self._chain(c0, c1)


# ---------------------------------------------------------------------------
# Evaluation

# What an elementary operation can raise: a domain check, or numpy's
# overflow, invalid-value or divide-by-zero error under the errstate of
# ``_evaluate``.
_OP_ERRORS = (_JetDomain, ArithmeticError)
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _domain_error(err: Exception, node: Node) -> EvalDomainError:
    # numpy says "overflow encountered in exp" of an array and "... in scalar
    # multiply" of a scalar: the reason is what was encountered
    return EvalDomainError(str(err).split(" encountered")[0], to_text(node))


def _eval_jet(node: Node, env: dict, const):
    if isinstance(node, Const):
        return const(np.float64(node.value))
    if isinstance(node, Var):
        return env[node.name]
    try:
        if isinstance(node, Unary):
            a = _eval_jet(node.arg, env, const)
            return -a if node.op == "neg" else a.apply(node.op)
        left = _eval_jet(node.left, env, const)
        if node.op == "^":
            return left.pow_const(float(_eval_value(node.right, {})))
        return _ARITHMETIC[node.op](left, _eval_jet(node.right, env, const))
    except _OP_ERRORS as err:
        raise _domain_error(err, node) from None


_JETS = (Jet2, Jet3, Grad3)


def _eval_value(node: Node, env: dict):
    if isinstance(node, Const):
        return np.float64(node.value)
    if isinstance(node, Var):
        return env[node.name]
    try:
        if isinstance(node, Unary):
            a = _eval_value(node.arg, env)
            return -a if node.op == "neg" else _fn_coeffs(node.op, a)[0]
        a, b = _eval_value(node.left, env), _eval_value(node.right, env)
        if node.op == "^":
            return _powf(a, b)
        if node.op == "/" and np.any(b == 0.0):
            raise _JetDomain("division by zero")
        return _ARITHMETIC[node.op](a, b)
    except _OP_ERRORS as err:
        raise _domain_error(err, node) from None


def _evaluate(values, walk):
    """``walk`` over the grid of ``values``: float64 arrays broadcast to one
    shape, 0-d at a point.

    numpy overflow, invalid and divide-by-zero results raise, so they name
    their node instead of passing inf or NaN on, and an
    :class:`EvalDomainError` names the first grid point where evaluation
    fails.  Constant fields of the result are filled out to the grid.
    """
    grid = np.broadcast_arrays(*(np.asarray(x, dtype=np.float64) for x in values))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            out = walk(grid)
        except EvalDomainError as err:
            raise _locate(err, grid, walk) from None
    # constant fields are filled out to the grid; at a point every field
    # becomes a 0-d array, whose ``**`` rounds as the array power does (a
    # numpy scalar's may not)
    shape = grid[0].shape
    if not isinstance(out, _JETS):
        return out if shape and np.shape(out) == shape else np.full(shape, out)
    for name in out.__slots__:
        x = getattr(out, name)
        if not shape or np.shape(x) != shape:
            setattr(out, name, np.full(shape, x))
    return out


def _locate(err: EvalDomainError, grid: list, walk) -> EvalDomainError:
    """The error of a failed grid evaluation at the first grid point that
    fails alone (a point gets the bits it gets in the grid, so some point
    does).  A prefix of the grid fails as an array iff one of its points
    does, so the point is found by halving the failing prefix: about
    log2(n) array walks, then one walk at the point for its message."""
    flat = [a.ravel() for a in grid]
    lo, hi = 0, flat[0].size  # the prefix [0, lo) passes and [0, hi) fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            walk([a[:mid] for a in flat])
            lo = mid
        except EvalDomainError:
            hi = mid
    point = tuple(float(a[lo]) for a in flat)
    try:
        walk([np.asarray(x) for x in point])
    except EvalDomainError as at_point:
        return EvalDomainError(at_point.reason, at_point.node_text, point)
    return err


def eval_jet2(e: Expr, u, v) -> Jet2:
    """Evaluate a two-variable expression with exact partials to order 2
    over a grid (arrays, or floats for a grid of one).

    The first declared variable is seeded as the 'u' direction and the
    second as 'v'; no truncation error beyond floating point.
    """
    if len(e.variables) != 2:
        raise ExprError(f"eval_jet2 needs a two-variable expression, got {e.variables}")
    n0, n1 = e.variables
    return _evaluate((u, v), lambda p: _eval_jet(
        e.root, {n0: Jet2(p[0], du=1.0), n1: Jet2(p[1], dv=1.0)}, Jet2))


def eval_jet3(e: Expr, s) -> Jet3:
    """Evaluate a one-variable expression with exact derivatives to order 3
    over a grid (an array, or a float for a grid of one)."""
    if len(e.variables) != 1:
        raise ExprError(f"eval_jet3 needs a one-variable expression, got {e.variables}")
    name = e.variables[0]
    return _evaluate((s,), lambda p: _eval_jet(e.root, {name: Jet3(p[0], d1=1.0)}, Jet3))


def eval_grad3(e: Expr, x, y, z) -> Grad3:
    """Evaluate a three-variable expression with exact first partials over
    a grid (arrays, or floats for a grid of one)."""
    if len(e.variables) != 3:
        raise ExprError(f"eval_grad3 needs a three-variable expression, got {e.variables}")
    n0, n1, n2 = e.variables
    return _evaluate((x, y, z), lambda p: _eval_jet(
        e.root, {n0: Grad3(p[0], gx=1.0), n1: Grad3(p[1], gy=1.0), n2: Grad3(p[2], gz=1.0)},
        Grad3))


def evaluate(e: Expr, *values):
    """Plain evaluation, binding declared variables positionally, over a
    grid (arrays, or floats for a grid of one)."""
    if len(values) != len(e.variables):
        raise ExprError(f"expected {len(e.variables)} values for {e.variables}")
    return _evaluate(values, lambda p: _eval_value(e.root, dict(zip(e.variables, p))))
