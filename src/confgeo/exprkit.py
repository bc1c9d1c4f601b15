"""Scalar-field expressions in named variables, with exact forward-mode jets.

The expression language is deliberately small: real constants, declared
variables, the unary functions sin/cos/tan/exp/log/sqrt/sinh/cosh/tanh,
unary minus, and the binary operators + - * / ^ (exponent restricted to
constant sub-expressions).  Nodes are immutable after parse and evaluation
is pure, so expressions can be shared freely across threads.  A parse
interns into a table of nodes (a scenario load keeps one), so equal
subtrees are one node (hash-consing, Filliatre & Conchon, 2006).

There is one jet arithmetic, driven by tables: ``eval_jet2`` (order 2 in
two variables), ``eval_jet3`` (order 3 in one), ``eval_grad3`` (order 1 in
three) and ``evaluate`` (order 0, the plain value) differ only in the
table they read, and return the namedtuples ``Jet2``, ``Jet3``, ``Grad3``
and the value.  A coefficient gets the same bits at every order that
computes it, so a walk stops at the order its reader needs: ``eval_jet2``
and ``eval_jet3`` take that order, and the coefficients past it are None.
All four take a grid, float64 arrays of one shape, of any shape, walked at
once as in vector forward mode, and refuse mixed shapes, a float beside an
array among them.  A tuple of expressions is walked at once into a tuple
of results: a patch's x, y, z, a metric's E, F, G or an ambient map is one
walk, in which a node the roots share is evaluated once.  There is one
numeric path, numpy's: a point is a grid of one (floats enter as 0-d
arrays), and constants are ``np.float64`` scalars, so numpy's checks see
every operation.

Jets are sparse.  A partial of a constant or of a seeded variable is the
Python float 0.0 or 1.0, and a coefficient that is zero or one by structure
stays a Python float, never an array, until the fill at the end of a
walk: a product with a structural zero is 0.0 and forms no array, a sum
with one is the other operand, and a factor of 1.0 is not applied.
Skipping a term changes no nonzero coefficient's bits; a structural zero
is +0.0, where the skipped product could be -0.0.  A coefficient may be
another coefficient or a grid array itself, so none is ever written in
place.  A walk that does arithmetic refuses a non-finite value of a
variable its roots read, which numpy's checks would let through (inf + 1
raises nothing); an expression holds the set of the variables it reads.

A caller that reads the same derived values again enters a store
(:func:`walk_store`), held in a context variable, so that another thread
or task does not see it.  The store keeps the :func:`derived` values of the
other modules (patch and curve jets, forms, Christoffel symbols and the
dilation terms), each keyed by its function and its arguments: an array
by its bits, and any other argument by identity.  A walk is not kept, since
each walk a later call repeats sits behind a derived value that is, and it
is the same walk in a store as outside one.  No cache outlives a run but the
static jet tables and ``pcg64``'s jump table.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
import operator
from collections import Counter, namedtuple
from typing import NamedTuple, Union

import numpy as np


class ExprError(Exception):
    """Expression parsing/evaluation failure: a parse error ends in "at
    offset N"."""


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


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Unary(NamedTuple):
    op: str  # 'neg' or a function name
    arg: "Node"


class Binary(NamedTuple):
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


Node = Union[Const, Var, Unary, Binary]  # for annotations; isinstance reads _NODES
_NODES = (Const, Var, Unary, Binary)

FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "sqrt", "sinh", "cosh", "tanh")


class Expr(NamedTuple):
    """A parsed scalar field: immutable root node plus its declared
    variables, and the ones the root reads (set once, when it is made)."""

    root: Node
    variables: tuple[str, ...]
    reads: frozenset[str]


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
MAX_DEPTH = 100  # the deepest an expression may nest: parsing and walks recurse per level


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
                raise ExprError(f"bad number literal '{lit}' at offset {i}") from None
            if not np.isfinite(value):
                raise ExprError(f"number literal '{lit}' overflows at offset {i}")
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
        raise ExprError(f"unexpected character '{c}' at offset {i}")
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], variables: tuple[str, ...],
                 nodes: dict):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.nodes = nodes

    def node(self, cls, op, *operands) -> Node:
        # the one node of ``nodes`` with these fields (``op`` is a leaf's
        # value or name); its operands are interned already, so keyed by identity
        key = (cls, op, *map(id, operands))
        found = self.nodes.get(key)
        if found is None:
            found = self.nodes[key] = cls(op, *operands)
        return found

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ExprError(f"expected '{op}' at offset {pos}")
        self.advance()

    def parse(self) -> Node:
        node = self.chain(1)
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ExprError(f"unexpected '{text}' at offset {pos}")
        return node

    def chain(self, depth: int, ops: str = "+-") -> Node:
        """A left-associative chain of ``ops``: a sum ("+-") of products
        ("*/") of unaries.  ``depth`` counts the levels down to the chain:
        each sign, exponent, parenthesis or function call adds one."""
        operand = (lambda: self.unary(depth)) if ops == "*/" else lambda: self.chain(depth, "*/")
        node = operand()
        while (tok := self.peek())[0] == "op" and tok[1] in ops:
            self.advance()
            node = self.node(Binary, tok[1], node, operand())
        return node

    def unary(self, depth: int) -> Node:
        kind, text, pos = self.peek()
        if depth > MAX_DEPTH:  # every operand passes here, so the stack never runs out
            raise ExprError(f"expression deeper than {MAX_DEPTH} levels at offset {pos}")
        if kind == "op" and text == "-":
            self.advance()
            return self.node(Unary, "neg", self.unary(depth + 1))
        return self.power(depth)

    def power(self, depth: int) -> Node:
        base = self.atom(depth)
        kind, text, pos = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            exponent = self.unary(depth + 1)  # right-associative
            if variables_of(exponent):
                raise ExprError(f"exponent of '^' must be a constant expression at offset {pos}")
            return self.node(Binary, "^", base, exponent)
        return base

    def atom(self, depth: int) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return self.node(Const, float(text))
        if kind == "name":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ExprError(f"unknown function '{text}' at offset {pos}")
                self.advance()
                arg = self.chain(depth + 1)
                self.expect_op(")")
                return self.node(Unary, text, arg)
            if text not in self.variables:
                raise ExprError(f"unknown identifier '{text}' at offset {pos}")
            return self.node(Var, text)
        if kind == "op" and text == "(":
            node = self.chain(depth + 1)
            self.expect_op(")")
            return node
        if kind == "eof":
            raise ExprError(f"unexpected end of input at offset {pos}")
        raise ExprError(f"unexpected '{text}' at offset {pos}")


def parse_scalar_field(text: str, variables, nodes: dict | None = None) -> Expr:
    """Parse ``text`` into an :class:`Expr` over the declared variables.

    Grammar: infix with precedence ``^`` > unary ``-`` > ``* /`` > ``+ -``,
    left-associative except ``^`` (right-associative), parentheses and
    ``f(x)`` function calls.  Deeper than :data:`MAX_DEPTH` levels is a syntax error.

    Equal subtrees parsed into one table ``nodes`` are one node, and equal
    texts over equal variables one :class:`Expr`.
    """
    varnames = tuple(variables)
    if len(set(varnames)) != len(varnames):
        raise ValueError(f"duplicate variable names in {varnames}")
    for name in varnames:
        if name in FUNCTIONS:
            raise ValueError(f"variable name '{name}' shadows a function")
    if not text or not text.strip():
        raise ExprError("empty expression at offset 0")
    nodes = {} if nodes is None else nodes
    if (text, varnames) not in nodes:
        parser = _Parser(_tokenize(text), varnames, nodes)
        root = parser.parse()
        # a long sum or product nests without parser recursion: its tree is
        # measured level by level (a node's operands are its fields that are nodes)
        depth, level = 0, [root]
        while level:
            depth += 1
            level = [c for n in level for c in n if isinstance(c, _NODES)]
        if depth > MAX_DEPTH:
            raise ExprError(f"expression deeper than {MAX_DEPTH} levels at offset 0")
        nodes[text, varnames] = Expr(root, varnames, frozenset(variables_of(root)))
    return nodes[text, varnames]


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
    reads = frozenset().union(*(mapping[n].reads if n in mapping else {n} for n in e.reads))
    return Expr(rec(e.root), tuple(new_vars), reads)


# ---------------------------------------------------------------------------
# Jet arithmetic
#
# A jet holds the exact partial derivatives d^a f of a field for every
# multi-index a up to its order, in one list: by total order, then earlier
# variables first.  So (value, du, dv, duu, duv, dvv) in two variables to
# order 2, (value, d1, d2, d3) in one variable to order 3, (value, gx, gy, gz)
# in three to order 1, and (value,) for plain evaluation.  Products,
# quotients and compositions read the Leibniz and Faa di Bruno tables of
# their (number of variables, order) (Griewank & Walther, Evaluating
# Derivatives, 2nd ed., 2008, ch. 13).

# a coefficient past the order of its walk is None, so that a reader that
# needs it fails rather than reads a zero
Jet2 = namedtuple("Jet2", "value du dv duu duv dvv", defaults=(None,) * 5)
Jet3 = namedtuple("Jet3", "value d1 d2 d3", defaults=(None,) * 3)
Grad3 = namedtuple("Grad3", "value gx gy gz")
Jet2.__doc__ = ("Value and exact partials to order 2 in two variables (grid arrays); "
                "None past the order of the walk.")
Jet3.__doc__ = ("Value and exact derivatives to order 3 in one variable (grid arrays); "
                "None past the order of the walk.")
Grad3.__doc__ = "Value and exact first partials in three variables (grid arrays)."


class _JetDomain(Exception):
    """Internal: domain violation inside a jet operation (no node context)."""


class _Table(NamedTuple):
    """The arithmetic of jets in ``nvars`` variables to ``order``; each
    list has one entry per coefficient, in jet order."""

    order: int
    zeros: tuple     # the coefficients of a constant past its value
    seeds: tuple     # per variable, the coefficients of that variable past its value
    leibniz: tuple   # (binomial, i, j): d^a (fg) is f[a] * g[0] plus binomial * f[i] * g[j]
    faa: tuple       # (count, k, blocks): d^a f(g) sums count * f^(k) * prod g[blocks]


def _partitions(items: list):
    # every set partition of the positions of ``items``, as lists of items
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _partitions(rest):
        yield [[first], *blocks]
        for i in range(len(blocks)):
            yield [*blocks[:i], [first, *blocks[i]], *blocks[i + 1:]]


@functools.lru_cache(maxsize=None)
def _table(nvars: int, order: int) -> _Table:
    # Terms are listed so that each coefficient forms its products in the
    # order of a hand-written jet: Leibniz terms by descending beta, Faa di
    # Bruno terms by descending k with their blocks in jet order, a constant
    # factor applied first and a factor of 1 never applied.
    index = [a for k in range(order + 1)
             for a in sorted((a for a in itertools.product(range(k + 1), repeat=nvars)
                              if sum(a) == k), reverse=True)]
    pos = {a: i for i, a in enumerate(index)}
    leibniz, faa = [], []
    for a in index:
        betas = sorted((b for b in index if all(x <= y for x, y in zip(b, a))), reverse=True)
        leibniz.append(tuple(
            (float(math.prod(map(math.comb, a, b))), pos[b],
             pos[tuple(y - x for x, y in zip(b, a))])
            for b in betas[1:]))
        # the set partitions of a's variables (u, u, v for duuv): a block
        # of the partition is a partial of g
        labels = [i for i, n in enumerate(a) for _ in range(n)]
        counts = Counter(tuple(sorted(pos[tuple(map(block.count, range(nvars)))]
                                      for block in blocks))
                         for blocks in _partitions(labels))
        faa.append(tuple((float(n), len(blocks), blocks)
                         for blocks, n in sorted(counts.items(), key=lambda t: -len(t[0]))))
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    seeds = tuple(tuple(float(b == e) for b in index[1:]) for e in units)
    return _Table(order, (0.0,) * (len(index) - 1), seeds, tuple(leibniz), tuple(faa[1:]))


def _zero(x) -> bool:
    # a structural zero: a Python float 0.0 of either sign (np.float64
    # subclasses float, so a constant's zero is not one)
    return type(x) is float and x == 0.0


def _times(x, y):
    # x * y, sparse: a structural zero gives 0.0, and a Python-float factor
    # of 1.0 gives the other operand itself, so no array is formed for either
    if type(x) is float:
        if x == 0.0:
            return 0.0
        if x == 1.0:
            return y
    if type(y) is float:
        if y == 0.0:
            return 0.0
        if y == 1.0:
            return x
    return x * y


def _plus(x, y):
    # x + y, sparse: a sum with a structural zero is the other operand
    if _zero(x):
        return y
    return x if _zero(y) else x + y


def _minus(x, y):
    # x - y, sparse: less a structural zero is x itself
    return x if _zero(y) else x - y


def _mul(f: list, g: list, tab: _Table) -> list:
    out, g0 = [], g[0]
    for fa, rest in zip(f, tab.leibniz):
        x = _times(fa, g0)
        for c, i, j in rest:
            x = _plus(x, _times(f[i] if c == 1.0 else _times(c, f[i]), g[j]))
        out.append(x)
    return out


def _div(f: list, g: list, tab: _Table) -> list:
    # the quotient recurrence: q[a] = (f[a] - the other Leibniz terms of
    # (q g)[a]) / g[0]
    g0 = g[0]
    if np.count_nonzero(g0 == 0.0):
        raise _JetDomain("division by zero")
    q = []
    for x, rest in zip(f, tab.leibniz):
        for c, i, j in rest:
            x = _minus(x, _times(q[i] if c == 1.0 else _times(c, q[i]), g[j]))
        q.append(0.0 if _zero(x) else x / g0)
    return q


def _chain(c: list, g: list, tab: _Table) -> list:
    # the jet of f(g) from c = (f, f', ...) at g's value
    out = [c[0]]
    for terms in tab.faa:
        x = 0.0
        for n, k, blocks in terms:
            t = c[k] if n == 1.0 else _times(n, c[k])
            for b in blocks:
                t = _times(t, g[b])
            x = _plus(x, t)
        out.append(x)
    return out


def _powf(base, expo: float):
    # base**expo with Taylor-friendly conventions: 0^0 == 1.
    if expo == 0.0:
        return 1.0
    if expo < 0.0 and np.count_nonzero(base == 0.0):
        raise _JetDomain("zero base raised to a negative power")
    if expo != round(expo) and np.count_nonzero(base < 0.0):
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
        elif k and p - k < 0.0 and np.count_nonzero(v == 0.0):
            raise _JetDomain(f"derivative of order {k} is infinite at a zero base")
        else:
            out.append(coef * _powf(v, p - k))
        coef *= p - k
    return out


def _fn_coeffs(name: str, v):
    # f, f', f'', f''' of the named unary function at v, in turn: a jet
    # reads only as many as its order needs, so a derivative it does not
    # need can neither overflow nor leave the domain.
    if name == "sin":
        s = np.sin(v)
        yield s
        c = np.cos(v)
        yield from (c, -s, -c)
    elif name == "cos":
        c = np.cos(v)
        yield c
        s = np.sin(v)
        yield from (-s, -c, s)
    elif name == "tan":
        t = np.tan(v)
        yield t
        d = 1.0 + t * t
        yield d
        yield 2.0 * t * d
        yield (2.0 + 6.0 * t * t) * d
    elif name == "exp":
        ev = np.exp(v)
        yield from (ev, ev, ev, ev)
    elif name == "log":
        if np.count_nonzero(v <= 0.0):
            raise _JetDomain("log of a non-positive value")
        yield np.log(v)
        yield 1.0 / v
        yield -1.0 / (v * v)
        yield 2.0 / (v * v * v)
    elif name == "sqrt":
        if np.count_nonzero(v < 0.0):
            raise _JetDomain("sqrt of a negative value")
        r = np.sqrt(v)
        yield r
        if np.count_nonzero(v == 0.0):
            raise _JetDomain("derivative of sqrt is infinite at zero")
        yield 0.5 / r
        yield -0.25 / (r * v)
        yield 0.375 / (r * v * v)
    elif name in ("sinh", "cosh"):
        f, df = (np.sinh, np.cosh) if name == "sinh" else (np.cosh, np.sinh)
        a = f(v)
        yield a
        b = df(v)
        yield from (b, a, b)
    elif name == "tanh":
        t = np.tanh(v)
        yield t
        # sech^2 from exp(-2|v|): 1 - t*t cancels to nothing as |t| -> 1
        ev = np.exp(-2.0 * abs(v))
        d = 4.0 * ev / ((1.0 + ev) * (1.0 + ev))
        yield d
        yield -2.0 * t * d
        yield (6.0 * t * t - 2.0) * d
    else:
        raise ValueError(f"no such function '{name}'")


# ---------------------------------------------------------------------------
# Evaluation

# What an elementary operation can raise: a domain check, or numpy's
# overflow, invalid-value or divide-by-zero error under the errstate of
# ``_evaluate``.
_OP_ERRORS = (_JetDomain, ArithmeticError)


def _domain_error(err: Exception, node: Node) -> EvalDomainError:
    # numpy says "overflow encountered in exp" of an array and "... in scalar
    # multiply" of a scalar: the reason is what was encountered
    return EvalDomainError(str(err).split(" encountered")[0], to_text(node))


def _eval_jet(node: Node, env: dict, tab: _Table) -> list:
    # ``env`` holds the walk's seeded variables by name and its operator
    # nodes' jets by identity: a node shared by two roots is walked once
    if isinstance(node, Const):
        return [np.float64(node.value), *tab.zeros]
    if isinstance(node, Var):
        return env[node.name]
    if id(node) not in env:
        env[id(node)] = _eval_op(node, env, tab)
    return env[id(node)]


def _eval_op(node: Unary | Binary, env: dict, tab: _Table) -> list:
    # an operator node is unpacked once: reading a NamedTuple field by name
    # costs a descriptor call each time
    try:
        if isinstance(node, Unary):
            op, arg = node
            a = _eval_jet(arg, env, tab)
            if op == "neg":
                return [-x for x in a]
            return _chain(list(itertools.islice(_fn_coeffs(op, a[0]), tab.order + 1)),
                          a, tab)
        op, lnode, rnode = node
        left = _eval_jet(lnode, env, tab)
        if op == "^":
            # a walk of its own: an interned constant may be an operand too
            p = float(_eval_jet(rnode, {}, _table(0, 0))[0])
            return _chain(_pow_coeffs(left[0], p, tab.order), left, tab)
        right = _eval_jet(rnode, env, tab)
        if op == "+":
            return list(map(_plus, left, right))
        if op == "-":
            return list(map(_minus, left, right))
        return (_mul if op == "*" else _div)(left, right, tab)
    except _OP_ERRORS as err:
        raise _domain_error(err, node) from None


def _walk(exprs: tuple, order: int):
    """The grid walk of ``exprs``, all over one tuple of variables, to
    ``order``, yielding each one's jet in turn: each declared variable is
    seeded as its own direction."""
    variables = exprs[0].variables
    tab = _table(len(variables), order)
    # a walk that does arithmetic refuses a non-finite value of a variable its
    # roots read: numpy passes an inf on, and a structural zero never meets it
    checked = [] if all(isinstance(e.root, (Const, Var)) for e in exprs) else [
        (i, name) for i, name in enumerate(variables) if any(name in e.reads for e in exprs)]

    def walk(p):
        for i, name in checked:
            if np.count_nonzero(np.isfinite(p[i])) != p[i].size:
                raise EvalDomainError("non-finite value", name)
        env = {name: [x, *seed] for name, x, seed in zip(variables, p, tab.seeds)}
        for e in exprs:
            yield _eval_jet(e.root, env, tab)
    return walk


def _evaluate(grid, walk) -> list:
    """Each root's coefficients, by ``walk`` over ``grid``: float64 arrays
    of one shape, 0-d at a point.

    numpy overflow, invalid and divide-by-zero results raise, so they name
    their node instead of passing inf or NaN on, and an
    :class:`EvalDomainError` names the first grid point where evaluation
    fails.  Constant coefficients of the result are filled out to the grid.
    """
    out = []
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        try:
            for jet in walk(grid):
                out.append(jet)
        except EvalDomainError as err:
            # the walk up to the root that failed: the roots before it pass
            # on every part of the grid
            failing = len(out) + 1
            raise _locate(err, grid, lambda p: list(itertools.islice(walk(p), failing))) from None
    # constant coefficients are filled out to the grid; at a point every
    # one becomes a 0-d array, whose ``**`` rounds as the array power does
    # (a numpy scalar's may not)
    shape = grid[0].shape
    return [[x if type(x) is np.ndarray else np.full(shape, x) for x in j] for j in out]


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


# The store a caller has entered, if any (see ``walk_store``): only
# ``derived`` reads it.
_STORE: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "confgeo_walk_store", default=None)


@contextlib.contextmanager
def walk_store(store: dict | None):
    """Keep the :func:`derived` values of the block in ``store`` and reuse
    them; with None, keep nothing.

    The store keeps derived values only: a walk of ``eval_jet2``,
    ``eval_jet3``, ``eval_grad3`` or ``evaluate`` is made on every call,
    and gives what it gives outside a store.  A failed call is never
    kept: its error is raised again on the next call.  The caller owns
    ``store``, may enter it again, and empties it when its values are no
    longer needed.
    """
    token = _STORE.set(store)
    try:
        yield store
    finally:
        _STORE.reset(token)


def _key_part(x):
    # how a kept value's key reads one argument: an array by its dtype,
    # shape and bits, and anything else (a kept record, a member, an int)
    # by identity
    if type(x) is np.ndarray:
        return (x.dtype, x.shape, x.tobytes())
    return id(x)


def _kept_value(x, given: set):
    # a derived result as the store keeps it, every array read-only: an
    # array the call made is frozen in place, and one it was given (``given``
    # holds the identities of its arguments, such as the grid a bare
    # variable's value is) is copied first, so that neither the caller's
    # array is frozen nor a later write to it reaches the value; a list,
    # tuple or record is rebuilt only around such a copy
    if type(x) is np.ndarray:
        if id(x) in given:
            x = np.array(x)
        x.flags.writeable = False
        return x
    if isinstance(x, (list, tuple)):
        items = [_kept_value(y, given) for y in x]
        if any(map(operator.is_not, items, x)):
            return type(x)(items) if type(x) in (list, tuple) else type(x)(*items)
    return x


def derived(fn):
    """``fn``, whose results the store also keeps while a caller has
    entered one (see :func:`walk_store`); without one, ``fn`` itself.

    A result is keyed by ``fn`` and its positional arguments, each as it
    is given: an array by its dtype, shape and bits, read-only or not, and
    anything else by identity (a kept record, a member, an int).  So ``fn``
    takes no defaulted parameter, and a caller passes each value as its own
    argument.  The entry holds the arguments, so that no identity is
    reused, and the result with every array read-only.  The store keeps
    such results only, never a walk.  A call that raises is never kept, so
    the next call raises again.
    """

    @functools.wraps(fn)
    def keeping(*args):
        store = _STORE.get()
        if store is None:
            return fn(*args)
        key = (fn, *map(_key_part, args))
        entry = store.get(key)
        if entry is None:
            entry = store[key] = (args, _kept_value(fn(*args), set(map(id, args))))
        return entry[1]

    return keeping


def grid_arrays(name: str, values) -> list[np.ndarray]:
    """``values`` as the float64 arrays of one shape that ``name`` walks
    (a float is a grid of one); arrays of mixed shapes are refused."""
    grid = [np.asarray(x, dtype=np.float64) for x in values]
    if len({a.shape for a in grid}) > 1:
        raise ExprError(f"{name} needs grid arrays of one shape, got {[a.shape for a in grid]}")
    return grid


def _jets(name: str, e, values, order: int, top: int, kind):
    # ``kind`` of the coefficients of ``e`` to ``order`` over the grid of
    # ``values``, or a tuple of them for a tuple walked at once
    if order not in range(top + 1):
        raise ExprError(f"{name} takes an order from 0 to {top}, got {order!r}")
    exprs = (e,) if isinstance(e, Expr) else tuple(e)
    if len({x.variables for x in exprs}) != 1 or len(exprs[0].variables) != len(values):
        raise ExprError(f"{name} needs expressions over one tuple of {len(values)} "
                        f"variable(s), got {[x.variables for x in exprs]}")
    jets = [kind(*c) for c in _evaluate(grid_arrays(name, values), _walk(exprs, order))]
    return jets[0] if isinstance(e, Expr) else tuple(jets)


def eval_jet2(e: Expr | tuple[Expr, ...], u, v, order: int = 2) -> Jet2 | tuple[Jet2, ...]:
    """Evaluate a two-variable expression with exact partials to ``order``
    (0 to 2) over a grid (arrays, or floats for a grid of one); the
    partials past ``order`` are None.

    The first declared variable is seeded as the 'u' direction and the
    second as 'v'; no truncation error beyond floating point.
    """
    return _jets("eval_jet2", e, (u, v), order, 2, Jet2)


def eval_jet3(e: Expr | tuple[Expr, ...], s, order: int = 3) -> Jet3 | tuple[Jet3, ...]:
    """Evaluate a one-variable expression with exact derivatives to
    ``order`` (0 to 3) over a grid (an array, or a float for a grid of
    one); the derivatives past ``order`` are None."""
    return _jets("eval_jet3", e, (s,), order, 3, Jet3)


def eval_grad3(e: Expr | tuple[Expr, ...], x, y, z) -> Grad3 | tuple[Grad3, ...]:
    """Evaluate a three-variable expression with exact first partials over
    a grid (arrays, or floats for a grid of one)."""
    return _jets("eval_grad3", e, (x, y, z), 1, 1, Grad3)


def evaluate(e: Expr | tuple[Expr, ...], *values):
    """Plain evaluation (a jet of order 0), binding declared variables
    positionally, over a grid (arrays, or floats for a grid of one)."""
    return _jets("evaluate", e, values, 0, 0, lambda value: value)
