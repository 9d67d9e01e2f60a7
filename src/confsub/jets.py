"""First-order array jets: the derivative representation of the frame pass.

An array jet holds a stack of value arrays ``v[q, ...]``, one per point, and
their derivatives ``d[q, l, ...] = d_l v[q, ...]`` with respect to the source
chart coordinates: the point axis first, then the derivative axis.  With that
layout the product rule of a matrix product is plain batched ``@``:
``(A @ B).d = A.d @ B.v[:, None] + A.v[:, None] @ B.d``.  Every operation acts
on each point on its own, and the point axis stays outermost in memory, so a
point's numbers do not depend on the other points of its batch.
This is vector forward mode (Griewank & Walther, *Evaluating Derivatives*,
SIAM 2008).  The jets of the pass's inputs come from evaluating the scene's
expressions on ``expr.Jet2`` stacks, which carry the same point axis.

Values are computed when a jet is built; derivatives when they are first
read.  A product, sum, transpose or row selection keeps the function that
builds its derivative from its operands, which it holds, and the first read
of ``.d`` calls it and keeps the array.  Each ``d`` is ``dim`` times the size
of its ``v``, so a caller that reads values only (the structure data of the
frame pass) builds no derivative at all, and one that reads them builds each
once, with the same operations as an eager product rule.

A jet whose values do not vary (`ArrayJet.constant`: a constant metric or J,
or the differential of an affine map, whose Hessians are exactly zero) has a
derivative that is zero by construction: its ``.d`` is a `Zero`, which holds
its shape and no array, and a jet is `const` exactly when its ``.d`` is one.
The rules leave out every term whose factor is such a jet, and a result of
such jets only is one too: activity analysis (Griewank & Walther, ch. 6).
Products take jets only: a plain array is no factor, and ``ndarray @ jet``
raises TypeError.  The frame pass applies the same rule to its own steps:
Gram-Schmidt of such seeds under such a metric, and the square dilation of
such a Gram matrix, are structural zeros, so on an affine map with constant
metrics and J no derivative of the pass is ever built.  The rule goes on past
the pass, because a `Zero` is a value: a product with one is a `Zero` of the
product's shape and a sum with one is the other term, so the connection of a
constant metric (`geometry._levi_civita`) and every table built from such
derivatives alone are `Zero`s too, and a residual of one is 0.0 without
arithmetic.

The point axis follows the same rule: a value that is the same at every point
of a pass run is held once, with a point axis of length 1, and numpy
broadcasting carries it through every later operation, as SPMD compilers keep
"uniform" values beside "varying" ones (Pharr & Mark, ispc, InPar 2012).  A
constant grid (`geometry.grid_jet`), an expression's constant subtrees and
the derivatives of the coordinates (`expr.jet_seeds`) are such values, and so
is everything computed from them alone: on a scene whose metrics, J and
differential do not vary, every frame of the pass has length 1.  Inside the
frame pass a stack's point axis therefore has length 1 or N: `stacked` stacks
both kinds, `at_point` reads point q of either, and `full` widens a stack to
N (a read-only view that repeats it) where it leaves the pass beside values
that vary.  A pass run in which nothing varies leaves it as one point.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["ArrayJet", "Zero", "eye", "full", "at_point", "stacked"]


@functools.lru_cache(maxsize=None)
def eye(m: int) -> np.ndarray:
    """The m x m identity (shared, read-only)."""
    out = np.eye(m)
    out.flags.writeable = False
    return out


def full(x, count: int) -> np.ndarray:
    """The stack x[q, ...] with a point axis of length `count`: a length-1 axis becomes a read-only view."""
    return x if len(x) == count else np.broadcast_to(x, (count,) + x.shape[1:])


def at_point(x, q: int):
    """Point q of a stack whose point axis has length N, or 1 for a value the same at every point."""
    return x[q if len(x) > 1 else 0]


def stacked(arrays, axis: int) -> np.ndarray:
    """`np.stack` of stacks whose point axes have length 1 or N; broadcasts only where lengths differ."""
    if len({len(x) for x in arrays}) > 1:
        arrays = np.broadcast_arrays(*arrays)
    return np.stack(arrays, axis)


_BYTE = np.zeros(1, np.int8)


def _probe(shape: tuple) -> np.ndarray:
    """An int8 array of `shape` on one byte (all strides 0): numpy's shape rules with no data behind them."""
    return np.ndarray(shape, np.int8, _BYTE, 0, (0,) * len(shape))


def _shape(x) -> tuple:
    return getattr(x, "shape", ())


# numpy's broadcast of shapes; a check meets a few dozen distinct pairs
_broadcast = functools.lru_cache(maxsize=4096)(np.broadcast_shapes)


class Zero:
    """A structural zero: the array of zeros of `shape`, which is never built.

    A product with a `Zero`, and its selections, reshapes, transposes and
    traces, are a `Zero` of numpy's result shape; a sum with one is the other
    term, and its negation is itself.  numpy defers to it (`__array_ufunc__ =
    None`), so `array @ zero` and `array * zero` stay symbolic while a ufunc
    such as `np.abs(zero)` raises TypeError; `np.asarray(zero)` builds the
    zeros, for tests and oracles.
    """

    __slots__ = ("shape",)
    __array_ufunc__ = None

    def __init__(self, shape):
        self.shape = tuple(shape)

    ndim = property(lambda self: len(self.shape))

    def __len__(self):
        return self.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.zeros(self.shape, dtype or float)

    def __repr__(self):
        return f"Zero({self.shape})"

    def __matmul__(self, other):
        return Zero(_matmul_shape(self.shape, other.shape))

    def __rmatmul__(self, other):
        return Zero(_matmul_shape(other.shape, self.shape))

    def __mul__(self, other):
        return Zero(_broadcast(self.shape, _shape(other)))

    __rmul__ = __truediv__ = __mul__

    def __add__(self, other):
        shape = _broadcast(self.shape, _shape(other))
        if type(other) is Zero:
            return Zero(shape)
        return other if _shape(other) == shape else np.broadcast_to(other, shape)

    __radd__ = __rsub__ = __add__

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self

    def __getitem__(self, index):
        return Zero(_probe(self.shape)[index].shape)

    def reshape(self, *shape):
        return Zero(_probe(self.shape).reshape(*shape).shape)

    def transpose(self, *axes):
        return Zero(_probe(self.shape).transpose(*axes).shape)

    def swapaxes(self, a: int, b: int):
        return Zero(_probe(self.shape).swapaxes(a, b).shape)

    def trace(self, *, axis1: int = 0, axis2: int = 1):
        return Zero(_probe(self.shape).diagonal(0, axis1, axis2).shape[:-1])


@functools.lru_cache(maxsize=4096)
def _matmul_shape(a: tuple, b: tuple) -> tuple:
    """numpy's shape of `matmul` of operands of shapes a and b."""
    return (_probe(a) @ _probe(b)).shape


class ArrayJet:
    """Values ``v[q, ...]`` and derivatives ``d[q, l, ...] = d_l v[q, ...]`` at points q.

    `d` is given as an array, a `Zero`, or a function of no arguments that
    builds it on first read; a jet is `const` exactly when its `d` is a `Zero`.
    """

    __slots__ = ("v", "_d")
    # makes `ndarray @ jet` raise TypeError: a product takes jets only
    __array_ufunc__ = None

    def __init__(self, v, d):
        self.v = v
        self._d = d

    const = property(lambda self: type(self._d) is Zero, doc="Whether the derivative is zero by construction.")

    @property
    def d(self) -> np.ndarray | Zero:
        if callable(self._d):
            self._d = self._d()
        return self._d

    @classmethod
    def constant(cls, v, dim: int) -> "ArrayJet":
        """The jet of values `v[q, ...]` that do not vary, along `dim` coordinates: its derivative is a `Zero`."""
        v = np.asarray(v, dtype=float)
        return cls(v, Zero(v.shape[:1] + (dim,) + v.shape[1:]))

    def full(self, count: int) -> "ArrayJet":
        """The jet with values and derivatives widened to `count` points (`full`); `.d` stays lazy, or a `Zero`.

        A derivative has at least the point length of its values (`geometry.grid_jet` makes it so,
        and every rule keeps it), so a jet whose values have all `count` points is returned as it is.
        """
        if len(self.v) == count:
            return self
        if type(self._d) is Zero:
            return ArrayJet.constant(full(self.v, count), self._d.shape[1])
        return ArrayJet(full(self.v, count), lambda: full(self.d, count))

    def rows(self, idx) -> "ArrayJet":
        """The rows `idx` of every matrix (copies, point axis outermost)."""
        return _rule(self.v.take(idx, 1), self, lambda: self.d.take(idx, 2))

    @property
    def T(self) -> "ArrayJet":
        """Transpose of each matrix."""
        return _rule(self.v.swapaxes(-1, -2), self, lambda: self.d.swapaxes(-1, -2))

    def __matmul__(self, other: "ArrayJet") -> "ArrayJet":
        return _rule(self.v @ other.v, self, lambda: self.d @ other.v[:, None],
                     other, lambda: self.v[:, None] @ other.d)

    def __add__(self, other: "ArrayJet") -> "ArrayJet":
        return _rule(self.v + other.v, self, lambda: self.d, other, lambda: other.d)

    def __sub__(self, other: "ArrayJet") -> "ArrayJet":
        return _rule(self.v - other.v, self, lambda: self.d, other, lambda: -other.d)

    def __neg__(self) -> "ArrayJet":
        return _rule(-self.v, self, lambda: -self.d)


def _rule(v, a: ArrayJet, da, b: ArrayJet | None = None, db=None) -> ArrayJet:
    """The jet of values `v` whose derivative is `da() + db()`, without the term of a structural zero."""
    a_zero = type(a._d) is Zero
    if b is not None and type(b._d) is not Zero:
        return ArrayJet(v, db if a_zero else lambda: da() + db())
    return ArrayJet(v, Zero(v.shape[:1] + a._d.shape[1:2] + v.shape[1:])) if a_zero else ArrayJet(v, da)
