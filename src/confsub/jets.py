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
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["ArrayJet"]


class ArrayJet:
    """Values ``v[q, ...]`` and derivatives ``d[q, l, ...] = d_l v[q, ...]`` at points q."""

    __slots__ = ("v", "d")
    # makes `ndarray @ jet` return NotImplemented, so `__rmatmul__` runs
    __array_ufunc__ = None

    def __init__(self, v, d):
        self.v = v
        self.d = d

    @classmethod
    def constant(cls, v, dim: int) -> "ArrayJet":
        """The jet of values `v[q, ...]` that do not vary."""
        v = np.asarray(v, dtype=float)
        return cls(v, np.zeros(v.shape[:1] + (dim,) + v.shape[1:]))

    def __getitem__(self, idx) -> "ArrayJet":
        """The jet at the points `idx`, a slice or an index array; it keeps the point axis."""
        if isinstance(idx, numbers.Integral):
            raise TypeError("an ArrayJet is indexed by a slice or an index array, not a single point")
        return ArrayJet(self.v[idx], self.d[idx])

    def rows(self, idx) -> "ArrayJet":
        """The rows `idx` of every matrix (copies, point axis outermost)."""
        return ArrayJet(np.take(self.v, idx, axis=1), np.take(self.d, idx, axis=2))

    @property
    def T(self) -> "ArrayJet":
        """Transpose of each matrix."""
        return ArrayJet(self.v.swapaxes(-1, -2), self.d.swapaxes(-1, -2))

    def __matmul__(self, other):
        if not isinstance(other, ArrayJet):  # constant right factor
            return ArrayJet(self.v @ other, self.d @ other)
        return ArrayJet(self.v @ other.v, self.d @ other.v[:, None] + self.v[:, None] @ other.d)

    def __rmatmul__(self, other):  # constant left factor
        return ArrayJet(other @ self.v, other @ self.d)

    def __add__(self, other: "ArrayJet") -> "ArrayJet":
        return ArrayJet(self.v + other.v, self.d + other.d)

    def __sub__(self, other: "ArrayJet") -> "ArrayJet":
        return ArrayJet(self.v - other.v, self.d - other.d)

    def __neg__(self) -> "ArrayJet":
        return ArrayJet(-self.v, -self.d)

    def __repr__(self):
        return f"ArrayJet(v={self.v!r}, d={self.d!r})"
