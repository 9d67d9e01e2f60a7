"""First-order array jets: the derivative representation of the frame pass.

An array jet holds a value array ``v[...]`` and its derivative array
``d[l, ...] = d_l v[...]`` with respect to the source chart coordinates, the
derivative axis first.  With that layout the product rule of a matrix product
is plain batched ``@``: ``(A @ B).d = A.d @ B.v + A.v @ B.d`` broadcasts over
the leading axis.  Only a vector right factor needs its own form,
``B.d @ A.v.T``, because the derivative of a vector is the matrix ``d[l, k]``.
This is vector forward mode (Griewank & Walther, *Evaluating Derivatives*,
SIAM 2008); scalar expressions still evaluate on ``expr.Jet2``, and
``from_scalars`` gathers their results.
"""

from __future__ import annotations

import numpy as np

from .expr import Jet2, value_of

__all__ = ["ArrayJet"]


class ArrayJet:
    """Value ``v`` and derivative ``d`` with ``d[l, ...] = d_l v[...]``."""

    __slots__ = ("v", "d")
    # makes `ndarray @ jet` return NotImplemented, so `__rmatmul__` runs
    __array_ufunc__ = None

    def __init__(self, v, d):
        self.v = v
        self.d = d

    @classmethod
    def constant(cls, v, dim: int) -> "ArrayJet":
        v = np.asarray(v, dtype=float)
        return cls(v, np.zeros((dim,) + v.shape))

    @classmethod
    def from_scalars(cls, scalars, dim: int) -> "ArrayJet":
        """Gather a vector or grid of first-order `Jet2`s and floats (constants)."""
        grid = np.array(scalars, dtype=object)
        flat = grid.ravel()
        v = np.array([value_of(s) for s in flat], dtype=float).reshape(grid.shape)
        d = np.zeros((dim, flat.size))
        for k, s in enumerate(flat):
            if isinstance(s, Jet2):
                d[:, k] = s.gradient
        return cls(v, d.reshape((dim,) + grid.shape))

    @property
    def T(self) -> "ArrayJet":
        """Transpose of a matrix jet."""
        return ArrayJet(self.v.T, self.d.transpose(0, 2, 1))

    def __matmul__(self, other):
        if not isinstance(other, ArrayJet):  # constant right factor
            return ArrayJet(self.v @ other, self.d @ other)
        if other.v.ndim == 1:
            return ArrayJet(self.v @ other.v, self.d @ other.v + other.d @ self.v.T)
        return ArrayJet(self.v @ other.v, self.d @ other.v + self.v @ other.d)

    def __rmatmul__(self, other):  # constant left factor
        if self.v.ndim == 1:
            return ArrayJet(other @ self.v, self.d @ other.T)
        return ArrayJet(other @ self.v, other @ self.d)

    def __add__(self, other: "ArrayJet") -> "ArrayJet":
        return ArrayJet(self.v + other.v, self.d + other.d)

    def __sub__(self, other: "ArrayJet") -> "ArrayJet":
        return ArrayJet(self.v - other.v, self.d - other.d)

    def __neg__(self) -> "ArrayJet":
        return ArrayJet(-self.v, -self.d)

    def __repr__(self):
        return f"ArrayJet(v={self.v!r}, d={self.d!r})"
