"""Scalar expressions over chart coordinates, evaluated in forward-mode jet arithmetic.

Every derivative in the engine comes out of this module: an expression tree is
evaluated once on the coordinate jets of a whole stack of points (``Jet2``:
values, gradients and Hessians with a leading point axis), and the product and
chain rules propagate exact values and derivatives, so all downstream geometry
is exact up to floating-point rounding.  Every operation acts on each point on
its own, so a point's numbers do not depend on the other points of its stack,
and a point that leaves the domain of a subexpression is reported through the
``fail(bad, error)`` contract of the frame pass, which drops the point and
restarts on the others.

Constants and the derivatives of the coordinates are held once, with a point
axis of length 1 (the point-uniform rule of `jets`), so a sum of coordinates
and constants keeps derivatives of length 1; `eval_jet2` widens its result to
N points.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' number)?
    base   := number | ident | '(' expr ')' | func '(' expr ')'
    func   := sin | cos | exp | log | sqrt | neg
    ident  := 'x' digits          (x1-based; x3 is coordinate index 2)
    number := decimal with optional exponent, unsigned, finite as a double
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .jets import full

__all__ = [
    "Jet2",
    "Const",
    "Var",
    "BinOp",
    "Pow",
    "Call",
    "ScalarExpr",
    "ExprError",
    "ExprParseError",
    "ExprDomainError",
    "FUNCTIONS",
    "parse",
    "to_string",
    "evaluate",
    "eval_jet2",
    "jet_seeds",
    "raise_first",
]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "neg")


class ExprError(ValueError):
    """Base class for expression failures."""


class ExprParseError(ExprError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, column {col})")


class ExprDomainError(ExprError):
    def __init__(self, message: str, subexpr: str):
        self.subexpr = subexpr
        super().__init__(f"{message} in subexpression '{subexpr}'")


# ---------------------------------------------------------------------------
# Jets


class Jet2:
    """A stack of second-order jets: ``value[q]``, ``gradient[q, l]``, ``hessian[q, l, m]``.

    Each of the three has a point axis of length N, or 1 where it is the
    same at every point.  All arithmetic keeps each Hessian exactly
    symmetric: every update is a sum of symmetric terms, and ``a*b + b*a``
    style outer products are elementwise-commutative in IEEE arithmetic.
    """

    __slots__ = ("value", "gradient", "hessian")

    def __init__(self, value, gradient, hessian):
        self.value = value
        self.gradient = gradient
        self.hessian = hessian

    def constant_like(self, value: float) -> "Jet2":
        """The jet of a constant, held once for every point."""
        n = self.gradient.shape[1]
        return Jet2(np.full(1, float(value)), np.zeros((1, n)), np.zeros((1, n, n)))

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value + other.value, self.gradient + other.gradient, self.hessian + other.hessian)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value - other.value, self.gradient - other.gradient, self.hessian - other.hessian)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.gradient, -self.hessian)

    def __mul__(self, other: "Jet2") -> "Jet2":
        a, b = self.value[:, None], other.value[:, None]
        outer = self.gradient[:, :, None] * other.gradient[:, None, :]
        h = a[..., None] * other.hessian + b[..., None] * self.hessian + outer + outer.swapaxes(1, 2)
        return Jet2(self.value * other.value, a * other.gradient + b * self.gradient, h)

    def compose(self, f0, f1, f2) -> "Jet2":
        """Chain rule through a function with value f0 and derivatives f1, f2 at each point's value."""
        g = self.gradient
        h = f1[:, None, None] * self.hessian + f2[:, None, None] * (g[:, :, None] * g[:, None, :])
        return Jet2(f0, f1[:, None] * g, h)

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.gradient!r})"


def jet_seeds(points) -> list[Jet2]:
    """Coordinate jets at a stack of points ``points[q, i]``: values ``(N,)``, and the unit
    gradients ``(1, n)`` and zero Hessians ``(1, n, n)``, which are the same at every point."""
    points = np.asarray(points, dtype=float)
    n = points.shape[1]
    unit, zero = np.eye(n), np.zeros((1, n, n))
    return [Jet2(points[:, i].copy(), unit[i:i + 1], zero) for i in range(n)]


# ---------------------------------------------------------------------------
# Expression tree


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 0-based chart coordinate


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "ScalarExpr"
    right: "ScalarExpr"


@dataclass(frozen=True)
class Pow:
    base: "ScalarExpr"
    exponent: float  # constant only


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ScalarExpr"


ScalarExpr = Union[Const, Var, BinOp, Pow, Call]


# ---------------------------------------------------------------------------
# Tokenizer / parser

_NUM_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VAR_RE = re.compile(r"x(\d+)\Z")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        m = _NUM_RE.match(text, i)
        if m and (ch.isdigit() or ch == "."):
            tokens.append(_Token("num", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, line, col))
            col += 1
            i += 1
            continue
        raise ExprParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ExprParseError(message, tok.line, tok.col)

    def number(self) -> float:
        """The value of the numeric literal at the cursor, which must be finite."""
        tok = self.advance()
        value = float(tok.text)
        if not math.isfinite(value):
            self.fail(f"number {tok.text} out of range", tok)
        return value

    def parse_expr(self) -> ScalarExpr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> ScalarExpr:
        node = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> ScalarExpr:
        node = self.parse_base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "num":
                self.fail("exponent must be a numeric literal")
            node = Pow(node, self.number())
        return node

    def parse_base(self) -> ScalarExpr:
        tok = self.peek()
        if tok.kind == "num":
            return Const(self.number())
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.parse_expr()
            closing = self.peek()
            if not (closing.kind == "op" and closing.text == ")"):
                self.fail("expected ')'")
            self.advance()
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text in FUNCTIONS:
                opening = self.peek()
                if not (opening.kind == "op" and opening.text == "("):
                    self.fail(f"function '{tok.text}' requires parentheses", opening)
                self.advance()
                arg = self.parse_expr()
                closing = self.peek()
                if not (closing.kind == "op" and closing.text == ")"):
                    self.fail("expected ')'")
                self.advance()
                return Call(tok.text, arg)
            m = _VAR_RE.match(tok.text)
            if m:
                index = int(m.group(1))
                if index < 1 or index > self.dim:
                    self.fail(
                        f"variable {tok.text} out of range for dimension {self.dim}",
                        tok,
                    )
                return Var(index - 1)
            self.fail(f"unknown identifier '{tok.text}'", tok)
        self.fail("expected a number, variable, function or '('", tok)


def parse(text: str, dim: int) -> ScalarExpr:
    """Parse an expression over coordinates x1..x{dim}."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    parser = _Parser(_tokenize(text), dim)
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        parser.fail("unexpected trailing input", trailing)
    return node


# ---------------------------------------------------------------------------
# Printing (canonical form; parse(to_string(e)) is structurally identity for
# any tree the grammar can produce)

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _fmt_number(v: float) -> str:
    if not math.isfinite(v):
        raise ExprError(f"cannot print non-finite constant {v!r}")
    return repr(float(v))


def _fmt(e: ScalarExpr, context: int) -> str:
    if isinstance(e, Const):
        if e.value < 0 or math.copysign(1.0, e.value) < 0:
            return f"neg({_fmt_number(-e.value)})"
        return _fmt_number(e.value)
    if isinstance(e, Var):
        return f"x{e.index + 1}"
    if isinstance(e, Call):
        return f"{e.func}({_fmt(e.arg, 0)})"
    if isinstance(e, Pow):
        if e.exponent < 0:
            raise ExprError("cannot print negative exponent")
        out = f"{_fmt(e.base, _PREC_ATOM)}^{_fmt_number(e.exponent)}"
        return f"({out})" if context > _PREC_POW else out
    if isinstance(e, BinOp):
        prec = _PREC_ADD if e.op in "+-" else _PREC_MUL
        left = _fmt(e.left, prec)
        right = _fmt(e.right, prec + 1)
        out = f"{left} {e.op} {right}"
        return f"({out})" if prec < context else out
    raise TypeError(f"not an expression node: {e!r}")


def to_string(e: ScalarExpr) -> str:
    return _fmt(e, 0)


# ---------------------------------------------------------------------------
# Evaluation


def raise_first(bad, error):
    """The `fail` that stops at the first failure: raise the error of its first bad point."""
    bad = np.flatnonzero(bad)
    if len(bad):
        raise error(int(bad[0]))


def _chain(func: str, v: np.ndarray):
    """((f0, f1, f2), domain) of a function at the values v.

    f0, f1 and f2 are its value and first two derivatives, `domain` its
    domain errors as (mask, message) in the order they are checked.
    """
    if func == "sin":
        s, c = np.sin(v), np.cos(v)
        return (s, c, -s), ()
    if func == "cos":
        c, s = np.cos(v), np.sin(v)
        return (c, -s, -c), ()
    if func == "exp":
        e = np.exp(v)
        return (e, e, e), ()
    if func == "log":
        return (np.log(v), 1.0 / v, -1.0 / (v * v)), ((v <= 0.0, "log of non-positive value"),)
    if func == "sqrt":
        r = np.sqrt(v)
        return (r, 0.5 / r, -0.25 / (r * v)), (
            (v < 0.0, "sqrt of negative value"), (v == 0.0, "sqrt not differentiable at zero"))
    return (-v, np.full_like(v, -1.0), np.zeros_like(v)), ()  # neg


def _pow_chain(v: np.ndarray, c: float):
    """The `_chain` of x -> x^c."""
    zero = np.zeros_like(v)
    f1 = c * np.power(v, c - 1.0) if c != 0.0 else zero
    f2 = c * (c - 1.0) * np.power(v, c - 2.0) if c not in (0.0, 1.0) else zero
    return (np.power(v, c), f1, f2), (
        ((v < 0.0) & (not float(c).is_integer()), "fractional power of a negative value"),
        ((v == 0.0) & (c not in (0.0, 1.0) and c < 2.0), "power not differentiable at zero"),
    )


def _node(e: ScalarExpr, x: Jet2, chain, fail) -> Jet2:
    """x through the function or power at node e; bad points fail with errors naming e.

    A point fails outside the function's domain, and with a numerical overflow
    when its argument, value or a derivative is not finite.
    """
    (f0, f1, f2), domain = chain
    finite = np.isfinite(x.value) & np.isfinite(f0) & np.isfinite(f1) & np.isfinite(f2)
    for bad, message in (*domain, (~finite, "numerical overflow")):
        fail(bad, lambda q, message=message: ExprDomainError(message, to_string(e)))
    return x.compose(f0, f1, f2)


def evaluate(e: ScalarExpr, xs: list[Jet2], fail=raise_first) -> Jet2:
    """The jets of an expression at every point of the coordinate jets `xs` (see `jet_seeds`).

    A point outside the domain of a subexpression is reported as
    `fail(bad, error)`: `bad` masks the points and `error(q)` is the
    `ExprDomainError` of point q, which names the innermost failing
    subexpression.  Subexpressions are visited in evaluation order, children
    first, so a point's first failure is the one a single-point evaluation
    meets.  `bad` has one entry per point, also where it tests a value held
    once for every point.  Every `fail` in `src` raises: the default raises
    the error of the first bad point, and the frame pass's records each bad
    point's error and restarts without them.  A `fail` that returns lets the
    other points go on, and the numbers of a failed point mean nothing.
    """
    count = len(xs[0].value)

    def each(bad, error):  # the mask of a uniform value covers every point
        fail(full(bad, count), error)

    with np.errstate(all="ignore"):  # points outside a domain fail explicitly
        return _walk(e, xs, each)


def _walk(e: ScalarExpr, xs: list[Jet2], fail) -> Jet2:
    if isinstance(e, Var):
        return xs[e.index]
    if isinstance(e, Const):
        return xs[0].constant_like(e.value)
    if isinstance(e, BinOp):
        a, b = _walk(e.left, xs, fail), _walk(e.right, xs, fail)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        v = b.value
        fail(v == 0.0, lambda q: ExprDomainError("division by zero", to_string(e)))
        return a * b.compose(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))
    if isinstance(e, Pow):
        x = _walk(e.base, xs, fail)
        return _node(e, x, _pow_chain(x.value, e.exponent), fail)
    if isinstance(e, Call):
        x = _walk(e.arg, xs, fail)
        return _node(e, x, _chain(e.func, x.value), fail)
    raise TypeError(f"not an expression node: {e!r}")


def eval_jet2(e: ScalarExpr, points) -> Jet2:
    """Values, gradients and Hessians of the expression at a stack of chart points `points[q]`.

    Each has a point axis of length N: a part that is the same at every point
    is a read-only view that repeats it.
    """
    seeds = jet_seeds(points)
    j, count = evaluate(e, seeds), len(seeds[0].value)
    return Jet2(full(j.value, count), full(j.gradient, count), full(j.hessian, count))
