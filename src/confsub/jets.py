"""First-order array jets: the derivative representation of the frame pass.

An array jet holds a value array ``v[...]`` and its derivative array
``d[l, ...] = d_l v[...]`` with respect to the source chart coordinates, the
derivative axis first.  With that layout the product rule of a matrix product
is plain batched ``@``: ``(A @ B).d = A.d @ B.v + A.v @ B.d`` broadcasts over
the leading axis.

The frame pass runs on stacks of matrices over many sample points at once: a
batched jet puts a point axis in front of both parts, ``v[q, ...]`` and
``d[q, l, ...]``, so that ``jet[q]`` is the ordinary jet at point q.  Its
products insert the derivative axis into the values (``v[:, None]``).  Every
operation acts on each point on its own, and the point axis stays outermost
in memory, so that a point's view has the layout of a batch of one: its
numbers do not depend on the other points of its batch.
This is vector forward mode (Griewank & Walther, *Evaluating Derivatives*,
SIAM 2008).  The jets of the pass's inputs come from evaluating the scene's
expressions on ``expr.Jet2`` stacks, which carry the same point axis.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArrayJet"]


class ArrayJet:
    """Value ``v`` and derivative ``d`` with ``d[l, ...] = d_l v[...]``.

    With ``batched`` set, both carry a leading point axis: ``v[q, ...]`` and
    ``d[q, l, ...]``; batched jets are stacks of matrices.
    """

    __slots__ = ("v", "d", "batched")
    # makes `ndarray @ jet` return NotImplemented, so `__rmatmul__` runs
    __array_ufunc__ = None

    def __init__(self, v, d, batched: bool = False):
        self.v = v
        self.d = d
        self.batched = batched

    @classmethod
    def constant(cls, v, dim: int, batched: bool = False) -> "ArrayJet":
        v = np.asarray(v, dtype=float)
        lead = v.shape[:1] if batched else ()
        return cls(v, np.zeros(lead + (dim,) + v.shape[len(lead):]), batched)

    @classmethod
    def stack(cls, jets) -> "ArrayJet":
        """The batched jet of per-point jets, in order."""
        return cls(np.stack([j.v for j in jets]), np.stack([j.d for j in jets]), True)

    def __getitem__(self, idx) -> "ArrayJet":
        """The jet at point `idx` of a batched jet, or the batched jet of the points `idx`."""
        return ArrayJet(self.v[idx], self.d[idx], np.ndim(idx) > 0)

    def rows(self, idx) -> "ArrayJet":
        """The rows `idx` of every matrix of a batched jet (copies, point axis outermost)."""
        return ArrayJet(np.take(self.v, idx, axis=1), np.take(self.d, idx, axis=2), True)

    @property
    def _vd(self):
        """The values, broadcastable against the derivatives."""
        return self.v[:, None] if self.batched else self.v

    @property
    def T(self) -> "ArrayJet":
        """Transpose of a matrix jet (of each matrix of a batched jet)."""
        return ArrayJet(self.v.swapaxes(-1, -2), self.d.swapaxes(-1, -2), self.batched)

    def __matmul__(self, other):
        if not isinstance(other, ArrayJet):  # constant right factor
            return ArrayJet(self.v @ other, self.d @ other, self.batched)
        return ArrayJet(self.v @ other.v, self.d @ other._vd + self._vd @ other.d, self.batched)

    def __rmatmul__(self, other):  # constant left factor
        return ArrayJet(other @ self.v, other @ self.d, self.batched)

    def __add__(self, other: "ArrayJet") -> "ArrayJet":
        return ArrayJet(self.v + other.v, self.d + other.d, self.batched)

    def __sub__(self, other: "ArrayJet") -> "ArrayJet":
        return ArrayJet(self.v - other.v, self.d - other.d, self.batched)

    def __neg__(self) -> "ArrayJet":
        return ArrayJet(-self.v, -self.d, self.batched)

    def __repr__(self):
        return f"ArrayJet(v={self.v!r}, d={self.d!r}, batched={self.batched})"
