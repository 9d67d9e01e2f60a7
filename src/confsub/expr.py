"""Scalar expressions over chart coordinates, evaluated in forward-mode jet arithmetic.

Every derivative in the engine comes out of this module: an expression tree is
evaluated on ``Jet2`` seeds and the product/chain rules propagate exact values,
gradients and (optionally) Hessians, so all downstream geometry is exact up to
floating-point rounding.  The same evaluator runs on plain floats, which is the
fast path used by samplers and finite-difference cross-checks.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' number)?
    base   := number | ident | '(' expr ')' | func '(' expr ')'
    func   := sin | cos | exp | log | sqrt | neg
    ident  := 'x' digits          (x1-based; x3 is coordinate index 2)
    number := decimal with optional exponent, unsigned
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Jet2",
    "Const",
    "Var",
    "BinOp",
    "Pow",
    "Call",
    "ScalarExpr",
    "Scalar",
    "ExprError",
    "ExprParseError",
    "ExprDomainError",
    "FUNCTIONS",
    "parse",
    "to_string",
    "evaluate",
    "eval_jet2",
    "jet_seeds",
    "value_of",
    "as_jet",
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
    """Second-order jet: value, gradient and optional Hessian.

    The Hessian is ``None`` when only first-order information is being
    propagated (the frame pipeline runs in that mode); it is a dense symmetric
    ndarray otherwise.  All arithmetic keeps the Hessian exactly symmetric:
    every update is a sum of symmetric terms, and ``a*b + b*a`` style outer
    products are elementwise-commutative in IEEE arithmetic.
    """

    __slots__ = ("value", "gradient", "hessian")

    def __init__(self, value, gradient, hessian=None):
        self.value = float(value)
        self.gradient = np.asarray(gradient, dtype=float)
        self.hessian = None if hessian is None else np.asarray(hessian, dtype=float)

    @property
    def dim(self) -> int:
        return self.gradient.shape[0]

    def constant_like(self, value: float) -> "Jet2":
        h = None if self.hessian is None else np.zeros_like(self.hessian)
        return Jet2(value, np.zeros_like(self.gradient), h)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            h = None
            if self.hessian is not None and other.hessian is not None:
                h = self.hessian + other.hessian
            return Jet2(self.value + other.value, self.gradient + other.gradient, h)
        if isinstance(other, (int, float, np.floating)):
            return Jet2(self.value + float(other), self.gradient, self.hessian)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        h = None if self.hessian is None else -self.hessian
        return Jet2(-self.value, -self.gradient, h)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            h = None
            if self.hessian is not None and other.hessian is not None:
                h = self.hessian - other.hessian
            return Jet2(self.value - other.value, self.gradient - other.gradient, h)
        if isinstance(other, (int, float, np.floating)):
            return Jet2(self.value - float(other), self.gradient, self.hessian)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float, np.floating)):
            return (-self) + float(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet2):
            g = self.value * other.gradient + other.value * self.gradient
            h = None
            if self.hessian is not None and other.hessian is not None:
                h = (
                    self.value * other.hessian
                    + other.value * self.hessian
                    + np.outer(self.gradient, other.gradient)
                    + np.outer(other.gradient, self.gradient)
                )
            return Jet2(self.value * other.value, g, h)
        if isinstance(other, (int, float, np.floating)):
            c = float(other)
            h = None if self.hessian is None else c * self.hessian
            return Jet2(c * self.value, c * self.gradient, h)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            return self * other._reciprocal()
        if isinstance(other, (int, float, np.floating)):
            return self * (1.0 / float(other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float, np.floating)):
            return self._reciprocal() * float(other)
        return NotImplemented

    def __pow__(self, exponent):
        if isinstance(exponent, (int, float, np.floating)):
            return s_pow(self, float(exponent))
        return NotImplemented

    def _reciprocal(self) -> "Jet2":
        v = self.value
        if v == 0.0:
            raise ZeroDivisionError("division by a jet with zero value")
        return self.compose(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def compose(self, f0: float, f1: float, f2: float) -> "Jet2":
        """Chain rule through a scalar function with derivatives f0, f1, f2 at self.value."""
        g = f1 * self.gradient
        h = None
        if self.hessian is not None:
            h = f1 * self.hessian + f2 * np.outer(self.gradient, self.gradient)
        return Jet2(f0, g, h)

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.gradient!r})"


Scalar = Union[float, Jet2]


def value_of(s: Scalar) -> float:
    return s.value if isinstance(s, Jet2) else float(s)


def as_jet(s: Scalar, dim: int, second_order: bool = False) -> Jet2:
    if isinstance(s, Jet2):
        return s
    h = np.zeros((dim, dim)) if second_order else None
    return Jet2(float(s), np.zeros(dim), h)


def jet_seeds(p, second_order: bool = True) -> list[Jet2]:
    """Coordinate jets at a point: unit gradients, zero Hessians."""
    n = len(p)
    seeds = []
    for i in range(n):
        g = np.zeros(n)
        g[i] = 1.0
        h = np.zeros((n, n)) if second_order else None
        seeds.append(Jet2(float(p[i]), g, h))
    return seeds


# -- scalar helpers usable on both floats and jets --------------------------


def s_sin(x: Scalar) -> Scalar:
    if isinstance(x, Jet2):
        return x.compose(math.sin(x.value), math.cos(x.value), -math.sin(x.value))
    return math.sin(x)


def s_cos(x: Scalar) -> Scalar:
    if isinstance(x, Jet2):
        return x.compose(math.cos(x.value), -math.sin(x.value), -math.cos(x.value))
    return math.cos(x)


def s_exp(x: Scalar) -> Scalar:
    if isinstance(x, Jet2):
        e = math.exp(x.value)
        return x.compose(e, e, e)
    return math.exp(x)


def s_log(x: Scalar) -> Scalar:
    v = value_of(x)
    if v <= 0.0:
        raise ValueError("log of non-positive value")
    if isinstance(x, Jet2):
        return x.compose(math.log(v), 1.0 / v, -1.0 / (v * v))
    return math.log(v)


def s_sqrt(x: Scalar) -> Scalar:
    v = value_of(x)
    if v < 0.0:
        raise ValueError("sqrt of negative value")
    if isinstance(x, Jet2):
        if v == 0.0:
            raise ValueError("sqrt not differentiable at zero")
        r = math.sqrt(v)
        return x.compose(r, 0.5 / r, -0.25 / (r * v))
    return math.sqrt(v)


def s_pow(x: Scalar, c: float) -> Scalar:
    v = value_of(x)
    if v < 0.0 and not float(c).is_integer():
        raise ValueError("fractional power of a negative value")
    if v == 0.0 and c not in (0.0, 1.0) and c < 2.0:
        raise ValueError("power not differentiable at zero")
    f0 = v**c
    if isinstance(x, Jet2):
        f1 = c * v ** (c - 1.0) if c != 0.0 else 0.0
        f2 = c * (c - 1.0) * v ** (c - 2.0) if c not in (0.0, 1.0) else 0.0
        return x.compose(f0, f1, f2)
    return f0


_FUNC_IMPL = {
    "sin": s_sin,
    "cos": s_cos,
    "exp": s_exp,
    "log": s_log,
    "sqrt": s_sqrt,
    "neg": lambda x: -x,
}


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
            self.advance()
            node = Pow(node, float(tok.text))
        return node

    def parse_base(self) -> ScalarExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
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


def evaluate(e: ScalarExpr, xs) -> Scalar:
    """Evaluate on a point whose entries are floats or jets (mixing allowed)."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return xs[e.index]
    if isinstance(e, BinOp):
        a = evaluate(e.left, xs)
        b = evaluate(e.right, xs)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if value_of(b) == 0.0:
            raise ExprDomainError("division by zero", to_string(e))
        return a / b
    if isinstance(e, Pow):
        try:
            return s_pow(evaluate(e.base, xs), e.exponent)
        except ExprDomainError:
            raise  # raised by a subexpression, which it already names
        except ValueError as err:
            raise ExprDomainError(str(err), to_string(e)) from None
        except OverflowError:
            raise ExprDomainError("numerical overflow", to_string(e)) from None
    if isinstance(e, Call):
        try:
            return _FUNC_IMPL[e.func](evaluate(e.arg, xs))
        except ExprDomainError:
            raise  # raised by a subexpression, which it already names
        except ValueError as err:
            raise ExprDomainError(str(err), to_string(e)) from None
        except OverflowError:
            raise ExprDomainError("numerical overflow", to_string(e)) from None
    raise TypeError(f"not an expression node: {e!r}")


def eval_jet2(e: ScalarExpr, p) -> Jet2:
    """Value, gradient and Hessian of the expression at a chart point."""
    n = len(p)
    result = evaluate(e, jet_seeds(p, second_order=True))
    return as_jet(result, n, second_order=True)
