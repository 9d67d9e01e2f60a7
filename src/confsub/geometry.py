"""Charted Riemannian / almost Hermitian manifolds and the Levi-Civita calculus.

A manifold is a single global chart: a dimension, a symmetric grid of metric
component expressions, an optional almost complex structure given the same
way, and a sampling box with excluded hypersurfaces.  All operations are pure
and pointwise; derivatives come from jet evaluation of the component
expressions, which `grid_jet` runs on a whole stack of points at once.  The
connection, covariant-derivative and bracket formulas of the tables of
`submersion` are written once here (`nabla`, `brackets`, `along`), on stacks
with a leading point axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import Tolerances
from .errors import NonSPDMetricError, StructureError
from .expr import Const, ScalarExpr, evaluate, jet_seeds, raise_first
from .jets import ArrayJet, Zero, at_point, eye, full, stacked

__all__ = [
    "ExcludedLocus",
    "ChartedManifold",
    "euclidean_metric",
    "canonical_complex_structure",
    "euclidean",
    "grid_jet",
    "check_spd",
    "along",
    "nabla",
    "brackets",
    "j_residuals",
    "nabla_j_norm",
    "complex_structure_residuals",
    "nabla_j_residual",
]


@dataclass(frozen=True)
class ExcludedLocus:
    """Hypersurface x_coord = value (kind 'eq') or x_coord = k*value (kind 'mod')."""

    kind: str
    coord: int  # 0-based
    value: float

    def distance(self, p) -> np.ndarray:
        """The distance of each point p[..., :] to the locus along its coordinate."""
        x = np.asarray(p, dtype=float)[..., self.coord]
        if self.kind == "eq":
            return np.abs(x - self.value)
        d = np.abs(np.fmod(x, self.value))  # exact, also where the modulus dwarfs x
        return np.minimum(d, self.value - d)


@dataclass(frozen=True)
class ChartedManifold:
    dim: int
    metric: tuple[tuple[ScalarExpr, ...], ...]
    complex_structure: tuple[tuple[ScalarExpr, ...], ...] | None = None
    box: tuple[tuple[float, float], ...] | None = None
    excluded: tuple[ExcludedLocus, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if len(self.metric) != self.dim or any(len(r) != self.dim for r in self.metric):
            raise ValueError("metric grid must be dim x dim")
        if self.complex_structure is not None:
            if self.dim % 2 != 0:
                raise ValueError("complex structure requires even dimension")
            J = self.complex_structure
            if len(J) != self.dim or any(len(r) != self.dim for r in J):
                raise ValueError("complex structure grid must be dim x dim")
        if self.box is not None and len(self.box) != self.dim:
            raise ValueError("box must have one interval per coordinate")


def euclidean_metric(dim: int) -> tuple[tuple[ScalarExpr, ...], ...]:
    return tuple(
        tuple(Const(1.0) if i == j else Const(0.0) for j in range(dim)) for i in range(dim)
    )


def canonical_complex_structure(dim: int) -> tuple[tuple[ScalarExpr, ...], ...]:
    """Pairs consecutive coordinates: (a1, a2, ...) -> (-a2, a1, ..., -a_{2m}, a_{2m-1})."""
    if dim % 2 != 0:
        raise ValueError("canonical complex structure needs even dimension")
    J = [[0.0] * dim for _ in range(dim)]
    for k in range(0, dim, 2):
        J[k][k + 1] = -1.0
        J[k + 1][k] = 1.0
    return tuple(tuple(Const(v) for v in row) for row in J)


def euclidean(dim: int, box=None, with_j: bool = False, excluded=()) -> ChartedManifold:
    J = canonical_complex_structure(dim) if with_j else None
    b = None if box is None else tuple((float(lo), float(hi)) for lo, hi in box)
    return ChartedManifold(dim, euclidean_metric(dim), J, b, tuple(excluded))


# ---------------------------------------------------------------------------
# Metric and connection


def grid_jet(grid, points, fail=raise_first) -> ArrayJet:
    """Batched first-order jet of a vector or grid of expressions at a stack of points.

    Values v[q, ...] at points[q] and derivatives d[q, l, ...].  Entries are
    evaluated in row order, equal ones (a symmetric metric's mirror entries)
    once, so a failing point reports the first entry that fails it
    (`expr.evaluate` explains `fail`).  A grid of constants is evaluated by
    no expression, its values are held once for every point (a point axis of
    length 1), and its derivative is a structural zero.  Another grid's
    derivative has as many points as its values, also where its entries are
    affine (`jets.ArrayJet.full` reads that).
    """
    cells = np.array(grid, dtype=object)
    if all(isinstance(e, Const) for e in cells.flat):
        values = np.array([e.value for e in cells.flat], dtype=float).reshape(cells.shape)
        return ArrayJet.constant(values[None], np.shape(points)[1])
    seeds = jet_seeds(points)
    jets = [*map(functools.cache(lambda e: evaluate(e, seeds, fail)), cells.ravel())]
    v = stacked([j.value for j in jets], -1).reshape((-1,) + cells.shape)
    d = stacked([j.gradient for j in jets], -1).reshape((-1, len(seeds)) + cells.shape)
    return ArrayJet(v, full(d, len(v)))


def check_spd(G: np.ndarray, what: str, at, fail=raise_first) -> None:
    """Fail each point q of a stack whose metric G[q] is not positive definite.

    A metric fails when its smallest eigenvalue is at most
    `Tolerances.definiteness` (1e-12) of its largest; the error reads "`what`
    not positive definite at `at(q)`" (`expr.evaluate` explains `fail`).  A
    metric held once for every point fails them all with a mask of length 1.
    """
    eigs = np.linalg.eigvalsh((G + G.swapaxes(-1, -2)) / 2.0)
    bad = eigs[:, 0] <= Tolerances.definiteness * np.maximum(eigs[:, -1], 1e-300)
    fail(bad, lambda q: NonSPDMetricError(
        f"{what} not positive definite at {at(q)}: eigs {at_point(eigs, q)}"))


def _levi_civita(g: ArrayJet, inv: np.ndarray | None = None) -> np.ndarray | Zero:
    """gamma[q, k, i, j] = Gamma^k_ij from a metric jet, without the definiteness test.

    `inv` is the inverse of the metric values when the caller holds it already.
    A metric that does not vary is flat: its connection is a `Zero`.
    """
    G, n = g.v, g.v.shape[-1]
    if g.const:
        return Zero((len(G), n, n, n))
    dG = g.d
    # Gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), a matrix product per point
    sym = dG + dG.swapaxes(1, 2) - dG.transpose(0, 2, 3, 1)
    prod = sym.reshape(-1, n * n, n) @ (np.linalg.inv(G) if inv is None else inv).swapaxes(1, 2)
    gamma = 0.5 * prod.reshape(-1, n, n, n).transpose(0, 3, 1, 2)
    return (gamma + gamma.swapaxes(2, 3)) / 2.0  # exact lower-index symmetry


def along(X: np.ndarray, table: np.ndarray | Zero) -> np.ndarray | Zero:
    """Derivatives along stacks of vectors X[q, r] from tables t[q, l, ...] = d_l(...): out[q, r, ...]."""
    if type(table) is Zero:
        return Zero(X.shape[:2] + table.shape[2:])
    N, dim = table.shape[:2]
    return (X @ table.reshape(N, dim, math.prod(table.shape[2:]))).reshape(X.shape[:2] + table.shape[2:])


def nabla(gamma: np.ndarray, Y: ArrayJet) -> np.ndarray:
    """Covariant derivatives of stacks of fields along every coordinate field, at every point.

    `Y` is a jet of rows (values `v[q, r, k]`) and `gamma[q, k, l, i]`
    the connection at the points; out[q, l, r] = nabla_{d_l} Y_r, with
    (nabla_{d_l} Y)^k = d_l Y^k + Gamma^k_li Y^i.  With the pullback
    coefficients Gamma_N^a_cb d_l F^c at [q, a, l, b] in place of `gamma` the
    same formula is the pullback connection on target-vector sections.
    """
    return Y.d + Y.v[:, None] @ gamma.transpose(0, 2, 3, 1)


def brackets(X: ArrayJet, Y: ArrayJet) -> np.ndarray:
    """Lie brackets of two stacks of fields: out[q, a, b] = X_a^i d_i Y_b - Y_b^i d_i X_a."""
    return along(X.v, Y.d) - along(Y.v, X.d).swapaxes(1, 2)


# ---------------------------------------------------------------------------
# Almost complex structure


def j_residuals(G: np.ndarray, J: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point of stacks G[q], J[q]: (max |J^2 + I|, max |g(JX,JY) - g(X,Y)| on coordinate pairs)."""
    r_square = np.abs(J @ J + eye(J.shape[-1])).max(axis=(1, 2))
    r_compat = np.abs(J.swapaxes(1, 2) @ G @ J - G).max(axis=(1, 2))
    return r_square, r_compat


def nabla_j_norm(G: np.ndarray, J: ArrayJet, gamma: np.ndarray) -> np.ndarray:
    """Per point of a batch: max g-norm over coordinate pairs (i, j) of (nabla_{d_i} J) d_j.

    Zero iff Kaehler; `G`, `J` and `gamma` carry the point axis first.
    """
    if type(J.d) is Zero and type(gamma) is Zero:  # a constant J on a flat chart is parallel
        return np.zeros(len(G))
    gam = gamma.swapaxes(1, 2)  # gam[q, i][k, j] = Gamma^k_ij
    # (nabla_i J)^k_j = d_i J^k_j + Gamma^k_im J^m_j - J^k_m Gamma^m_ij, stacked over i
    Jv = J.v[:, None]
    nab = J.d + gam @ Jv - Jv @ gam
    cols = nab.swapaxes(2, 3)  # cols[q, i, j] = (nabla_i J) d_j
    sq = ((cols @ G[:, None]) * cols).sum(-1).max(axis=(1, 2))
    return np.sqrt(np.maximum(sq, 0.0))


def _kahler_jets(M: ChartedManifold, p) -> tuple[ArrayJet, ArrayJet]:
    """(metric jet, J jet) of the batch of one at p; the metric is checked positive definite."""
    if M.complex_structure is None:
        raise StructureError("manifold has no complex structure")
    J = grid_jet(M.complex_structure, [p])
    g = grid_jet(M.metric, [p])
    check_spd(g.v, "source metric", lambda q: tuple(float(x) for x in p))
    return g, J


def complex_structure_residuals(M: ChartedManifold, p) -> tuple[float, float]:
    """(max |J^2 + I|, max |g(JX,JY) - g(X,Y)| on coordinate pairs) at p."""
    g, J = _kahler_jets(M, p)
    r_square, r_compat = j_residuals(g.v, J.v)
    return float(r_square[0]), float(r_compat[0])


def nabla_j_residual(M: ChartedManifold, p) -> float:
    """Max g-norm over coordinate pairs of (nabla_{d_i} J) d_j; zero iff Kaehler at p.

    The batch of one of the frame pass's Kaehler test, bit for bit.
    """
    g, J = _kahler_jets(M, p)
    return float(nabla_j_norm(g.v, J, _levi_civita(g))[0])
