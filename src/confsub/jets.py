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
derivative that is zero by construction: it stores no array, and its ``.d``
builds the zeros on first read.  The rules leave out every term whose factor
is such a jet, and a result of such jets only is one too: activity analysis
(Griewank & Walther, ch. 6).  The frame pass applies the same rule to its own
steps: Gram-Schmidt of such seeds under such a metric, and the square
dilation of such a Gram matrix, are structural zeros, so on an affine map
with constant metrics and J no derivative of the pass is ever built.

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

__all__ = ["ArrayJet", "eye", "full", "at_point", "stacked"]


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


class ArrayJet:
    """Values ``v[q, ...]`` and derivatives ``d[q, l, ...] = d_l v[q, ...]`` at points q.

    `d` is given as an array, or as a function of no arguments that builds it
    on first read.
    """

    __slots__ = ("v", "_d", "_zero")
    # makes `ndarray @ jet` return NotImplemented, so `__rmatmul__` runs
    __array_ufunc__ = None

    def __init__(self, v, d, zero: int = 0):
        self.v = v
        self._d = d
        self._zero = zero  # the number of coordinates when d is zero by construction, else 0

    const = property(lambda self: self._zero > 0, doc="Whether the derivative is zero by construction.")

    @property
    def d(self) -> np.ndarray:
        if callable(self._d):
            self._d = self._d()
        return self._d

    @classmethod
    def constant(cls, v, dim: int) -> "ArrayJet":
        """The jet of values `v[q, ...]` that do not vary, along `dim` coordinates."""
        v = np.asarray(v, dtype=float)
        return cls(v, lambda: np.zeros(v.shape[:1] + (dim,) + v.shape[1:]), dim)

    def full(self, count: int) -> "ArrayJet":
        """The jet with values and derivatives widened to `count` points (`full`); `.d` stays lazy.

        A derivative has at least the point length of its values (`geometry.grid_jet` makes it so,
        and every rule keeps it), so a jet whose values have all `count` points is returned as it is.
        """
        if len(self.v) == count:
            return self
        return ArrayJet(full(self.v, count), lambda: full(self.d, count), self._zero)

    def rows(self, idx) -> "ArrayJet":
        """The rows `idx` of every matrix (copies, point axis outermost)."""
        return _rule(self.v.take(idx, 1), self, lambda: self.d.take(idx, 2))

    @property
    def T(self) -> "ArrayJet":
        """Transpose of each matrix."""
        return _rule(self.v.swapaxes(-1, -2), self, lambda: self.d.swapaxes(-1, -2))

    def __matmul__(self, other):
        if not isinstance(other, ArrayJet):  # constant right factor
            other = _constant_factor(other)
            return _rule(self.v @ other, self, lambda: self.d @ other)
        return _rule(self.v @ other.v, self, lambda: self.d @ other.v[:, None],
                     other, lambda: self.v[:, None] @ other.d)

    def __rmatmul__(self, other):  # constant left factor
        other = _constant_factor(other)
        return _rule(other @ self.v, self, lambda: other @ self.d)

    def __add__(self, other: "ArrayJet") -> "ArrayJet":
        return _rule(self.v + other.v, self, lambda: self.d, other, lambda: other.d)

    def __sub__(self, other: "ArrayJet") -> "ArrayJet":
        return _rule(self.v - other.v, self, lambda: self.d, other, lambda: -other.d)

    def __neg__(self) -> "ArrayJet":
        return _rule(-self.v, self, lambda: -self.d)

    def __repr__(self):
        return f"ArrayJet(v={self.v!r}, d={self.d!r})"


def _rule(v, a: ArrayJet, da, b: ArrayJet | None = None, db=None) -> ArrayJet:
    """The jet of values `v` whose derivative is `da() + db()`, without the term of a structural zero."""
    if b is not None and not b._zero:
        return ArrayJet(v, db if a._zero else lambda: da() + db())
    return ArrayJet.constant(v, a._zero) if a._zero else ArrayJet(v, da)


def _constant_factor(c) -> np.ndarray:
    """A plain-array factor of a jet product, the same matrix at every point.

    Only a 2-D matrix is accepted: a stack `c[q]` of per-point matrices would
    broadcast against `d[q, l, ...]` over the wrong axes without an error.
    """
    c = np.asarray(c)
    if c.ndim != 2:
        raise ValueError(f"a plain factor of a jet product must be one 2-D matrix, not shape {c.shape}")
    return c
