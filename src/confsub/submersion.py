"""Everything attached to a smooth map between charted manifolds.

`SmoothMap.frame_pass(points)` runs the frame pass over all sample points as
one batch and returns, per point, its entry: the group of points that share
a pass run (`_Group`) and its position k there, or its own first error.  A
group is one object: its fields are what its run of the pass computes.  A
point is addressed as `(group, k)`: every value and table of a group carries
the point axis first, and index k is the point's, so a point's frames and
dilation are read at k (`group.d1.v[k]`, `group.lam[k]`), with no per-point
copy.  One run of the frame pass
evaluates the map, both metrics and J on jets of its points (`expr.Jet2`) and,
on first-order array jets (`jets.ArrayJet`: values `v[q, ...]`,
derivatives `d[q, l, ...] = d_l v[q, ...]`), builds the metric, Jacobian,
orthonormal vertical/horizontal frames, the invariant/anti-invariant
refinement of the vertical space, the dilation and the projectors onto the
vertical, horizontal and mu spaces; every drop and validation decision reads
the values only, against the fixed thresholds of `config.Tolerances`.  Its
first validations are the domains of the expressions, then finiteness, the
positive definiteness of the source metric at the point and of the
target metric at the image point, and that J is almost Hermitian
(J^2 = -I, g(JX, JY) = g(X, Y)), so nothing after them meets a metric that
is not Riemannian or a J that is not almost Hermitian.  Points whose
Gram-Schmidt drops differ run as separate groups, and a point's numbers are
the same bit for bit in any batch.

A value the same at every point of a run (a constant metric or J, the
differential of an affine map, and all the pass derives from them alone) is
computed once, with a point axis of length 1 (the point-uniform rule of
`jets`); its validation fails all the points with a mask of length 1.  A run
where every field is such a value, and the differential's Hessians too, is
one point: its group has one row, which holds its first point, and every
point of the run has the entry `(group, 0)`, so its tables, checkers and
report rows run once.  In any other group every field has N points, and a
uniform value leaves the pass as a read-only view that repeats it
(`jets.full`).  Apart from the point axis, a value that does not vary is a
structural zero (`jets.ArrayJet.constant`, whose derivative is a
`jets.Zero`): a constant metric or J, the differential of a map whose
Hessians are exactly zero in the run, and every frame, projector and square
dilation built from such values alone.  The tables carry the same rule: the
connection of a constant metric is a `Zero`, and so is every table and
contraction built from `Zero` derivatives and connections alone (`pairs`,
`_mapped` and `geometry.along` return one at once), while a norm of one
(`row_norms`, `lengths`) is 0.0 without arithmetic.  On an affine map with
constant metrics and J every table the checkers read is a `Zero`.

Each group builds its tables once and on first use, each on its own, with the
point axis leading: the connections, the Kaehler test, the second fundamental
form `sff[q, a, i, j]` from the component Hessians, O'Neill's `t[q, :, i, j]`
and `a[q, :, i, j]` from the projector jets, and the covariant derivatives
`nabla_{d_l}` of the pass's frames, which the definition-level side of the
checkers and the identity rows read; and the tables of the equivalent side,
in the adapted frame E = [d1, d2, J(d2), mu] (`AdaptedFrame`: connection
coefficients, J and its derivatives, the second fundamental form, dF and the
pullback connection, all in E-components).  Every contraction is a `matmul`
with the point axis as its batch axis.  A structure-only run builds none of
them, and no derivative of the frames, the projectors, G^-1 or the dilation
either: the pass computes the values of each jet it builds, and a derivative
is built when a table first reads it (`jets.ArrayJet.d`).

The pass and the tables are the hot path of a check, on 1-24 points per
group, where a numpy call's overhead outweighs its arithmetic.  They call
array methods and views (`.sum`, `.max`, `.trace`, `.take`, `.transpose`),
`lengths` for `np.linalg.norm(x, axis=-1)` and shared read-only constants
(`jets.eye`, `_half_lower`), not numpy's Python-level wrappers: the same
ufunc over the same axes, so every number is the same bit for bit.
`tests/test_hot_path.py` holds the code to that.

Frame construction is deterministic: horizontal seeds are the metric-raised
component gradients in component order, vertical seeds are the coordinate
fields in coordinate order, and Gram-Schmidt drops seeds whose norm falls
below the drop tolerance after projection against all earlier basis vectors.
The invariant part of the vertical space is the range of -(P_V J P_V)^2; a
singular value decomposition of P_V J P_V validates the split and rejects
ambiguous points.  A scene with no J (`J = none`, or no `J`) is machinery-only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .config import Tolerances
from .errors import (
    AmbiguousSplittingError,
    CriticalPointError,
    NotConformalError,
    NumericalOverflowError,
    StructureError,
)
from .expr import ScalarExpr, evaluate, jet_seeds, raise_first
from .geometry import (
    ChartedManifold,
    _levi_civita,
    along,
    check_spd,
    grid_jet,
    j_residuals,
    nabla,
    nabla_j_norm,
)
from .jets import ArrayJet, Zero, at_point, eye, full, stacked

__all__ = [
    "SmoothMap",
    "PointContext",
    "AdaptedFrame",
    "pairs",
    "row_norms",
    "lengths",
]


@dataclass(frozen=True)
class SmoothMap:
    source: ChartedManifold
    target: ChartedManifold
    components: tuple[ScalarExpr, ...]

    def __post_init__(self):
        if len(self.components) != self.target.dim:
            raise ValueError("component count must equal target dimension")
        if self.target.dim >= self.source.dim:
            raise ValueError("a submersion needs source dimension > target dimension")

    def frame_pass(self, points) -> tuple[list, list]:
        """The frame pass over all the points at once: (per point its entry, (members, group) per group).

        Each run of the pass evaluates its own inputs, the map, both metrics
        and J, on jets of its points (`_run_pipeline`).  A point that fails
        there, from a subexpression outside its domain to a map that is not
        conformal, records its first error, in pipeline order, and leaves the
        batch; points whose Gram-Schmidt drops differ go on in separate
        groups.  Either way the pass restarts on the remaining points, which
        repeats their numbers bit for bit: every operation acts on each point
        on its own.  A point's entry is its group (`_Group`) and position k
        there (0 in a group of one point-uniform row), or its error; `members`
        are the indices of a group's points, in order.
        """
        points, errors, groups = np.asarray(points, dtype=float), {}, []
        pending = [np.arange(len(points))] if len(points) else []
        with np.errstate(all="ignore"):  # non-finite values fail their point explicitly
            while pending:
                idx = pending.pop()

                def fail(bad, error, idx=idx):
                    if not (bad if isinstance(bad, bool) else bad.any()):
                        return
                    bad = np.broadcast_to(bad, idx.shape).nonzero()[0]
                    errors.update((int(idx[q]), error(q)) for q in bad)
                    raise _Regroup([np.setdiff1d(np.arange(len(idx)), bad)])

                try:
                    groups.append((idx, _run_pipeline(self, points[idx], fail)))
                except _Regroup as split:
                    pending += [idx[g] for g in split.groups if len(g)]
        entries = [errors.get(q) for q in range(len(points))]
        for members, group in groups:
            for k, q in enumerate(members.tolist()):
                entries[q] = (group, k if len(group.points) > 1 else 0)
        return entries, groups

    def context(self, p, tol: Tolerances | None = None) -> "PointContext":
        """The entry of p in `frame_pass([p])`, the batch of one; `tol` is not read."""
        (entry,), _ = self.frame_pass([p])
        return PointContext(entry)


class _Regroup(Exception):
    """Inside the batched pass: go on with these groups of the batch's points (positions)."""

    def __init__(self, groups):
        super().__init__()
        self.groups = groups


@functools.lru_cache(maxsize=None)
def _half_lower(m: int) -> np.ndarray:
    """Mask that keeps the lower triangle and halves the diagonal (shared, read-only)."""
    mask = np.tri(m) - 0.5 * eye(m)
    mask.flags.writeable = False
    return mask


def _affine(hessians: np.ndarray) -> bool:
    """Whether the map's Hessians are exactly zero at every point of a run (NaN is not zero):
    then its differential `DF` is a structural zero."""
    return not hessians.any()


def _orthonormal_rows(Gv: np.ndarray, Pv: np.ndarray, drop: float):
    """The value loop of `_gram_schmidt`: (B, kept seeds, points whose squared norms are all finite, steps).

    Row i of B is seed i less its projection on the earlier rows, normalized, or a zero row
    where its squared norm falls below drop**2.  `steps[i]` holds the projection coefficients
    and the inverse norm (0 for a dropped seed) of row i, all that `_inverse_factor` reads.
    """
    PG = Pv @ Gv
    N, k, dim = PG.shape
    B = np.zeros((N, k, dim))
    n2 = np.empty((N, k))
    steps = []
    for i in range(k):
        if i:
            c = (B[:, :i] @ PG[:, i, :, None])[..., 0]
            w = Pv[:, i] - (c[:, None] @ B[:, :i])[:, 0]
        else:  # nothing to project on: x - 0.0 is x, bit for bit
            c, w = np.empty((N, 0)), Pv[:, 0]
        s = n2[:, i] = (w[:, None] @ Gv @ w[..., None])[:, 0, 0]
        r = (s >= drop * drop) / np.sqrt(np.maximum(s, drop * drop))  # 1/sqrt(s), or 0 below drop**2
        B[:, i] = w * r[:, None]
        steps.append((c, r))
    return B, n2 >= drop * drop, np.isfinite(n2).all(axis=1), steps


def _inverse_factor(steps) -> np.ndarray:
    """Linv with B = Linv Pv (row j: B[j] as a combination of the seeds), replayed from the steps of
    `_orthonormal_rows` in their order."""
    N, k = len(steps[0][1]), len(steps)
    Linv = np.zeros((N, k, k))
    for i, (c, r) in enumerate(steps):
        Linv[:, i, :i] = -r[:, None] * (c[:, None] @ Linv[:, :i, :i])[:, 0]
        Linv[:, i, i] = r
    return Linv


def _gram_schmidt(G: ArrayJet, seeds: ArrayJet, drop: float, against: ArrayJet | None = None,
                  fail=raise_first) -> ArrayJet:
    """Metric Gram-Schmidt of the seed rows in order at every point, dropping near-dependent seeds.

    Seeds are first projected off the span of `against` (orthonormal rows, not
    returned).  Each seed is then projected against all earlier kept rows in
    one matrix-vector product and dropped when the value of its squared norm
    falls below drop**2; a dropped seed leaves a zero row, so every point runs
    the same loop.  A squared norm that is not finite fails its point
    (`fail`), and points that keep different seeds go on in separate groups
    (`_Regroup`).  The kept rows are B = L^-1 P, where P holds the kept
    projected seeds and P G P^T = L L^T with L lower triangular, so all their
    derivatives follow at once from the derivative of a Cholesky factor:
    dB = L^-1 dP - Phi(L^-1 dM L^-T) B with M = P G P^T, where Phi keeps the
    lower triangle and halves the diagonal.  Like every derivative of the
    pass, dB is built on first read, and L^-1 with it (`_inverse_factor`).
    Seeds, `against` and G that are all structural zeros give one too.
    """
    if against is not None and not against.v.shape[1]:
        against = None
    Gv = G.v
    Pv = seeds.v
    if against is not None:
        Pv = Pv - (Pv @ Gv @ against.v.swapaxes(1, 2)) @ against.v
    B, keep, finite, steps = _orthonormal_rows(Gv, Pv, drop)
    N, k, dim = B.shape
    fail(~finite, lambda q: NumericalOverflowError("numerical overflow in a Gram-Schmidt squared norm"))
    if (keep != keep[:1]).any():
        _, group = np.unique(keep, axis=0, return_inverse=True)
        group = group.ravel()
        raise _Regroup([np.flatnonzero(group == g) for g in range(group.max() + 1)])
    kept = keep[0].nonzero()[0]
    m = len(kept)
    B = B if m == k else B.take(kept, 1)
    if G.const and seeds.const and (against is None or against.const):
        return ArrayJet.constant(B, dim)
    if m == 0:
        return ArrayJet(B, np.zeros((N, dim, 0, dim)))

    def dB():
        Linv = _inverse_factor(steps).take(kept, 1).take(kept, 2)
        P = seeds if m == k else seeds.rows(kept)
        if against is not None:
            P = P - (P @ G @ against.T) @ against
        dM = (P @ G @ P.T).d
        X = (Linv[:, None] @ dM @ Linv.swapaxes(1, 2)[:, None]) * _half_lower(m)
        return Linv[:, None] @ P.d - X @ B[:, None]

    return ArrayJet(B, dB)


def _projector(G: ArrayJet, B: ArrayJet) -> ArrayJet:
    """Metric-orthogonal projection onto the span of orthonormal rows B: B^T B G."""
    return B.T @ (B @ G)


def row_norms(W: np.ndarray | Zero, G: np.ndarray) -> np.ndarray:
    """Metric norms of the vectors W[..., :]."""
    if type(W) is Zero:
        return np.zeros(W.shape[:-1])
    return np.sqrt(np.maximum(((W @ G) * W).sum(-1), 0.0))


def lengths(x: np.ndarray | Zero) -> np.ndarray:
    """Euclidean lengths of the vectors x[..., :]: `np.linalg.norm(x, axis=-1)` by numpy's own formula."""
    if type(x) is Zero:
        return np.zeros(x.shape[:-1])
    return np.sqrt((x * x).sum(-1))


def _run_pipeline(fmap: SmoothMap, points: np.ndarray, fail) -> _Group:
    """The frame pass on array jets at stacked points; every decision reads values only.

    The pass evaluates its own inputs on jets of the points: the map, the
    target metric at the image points, J and the source metric, in that
    order.  Each validation, from a subexpression outside its domain on,
    calls `fail(bad, error)` with a mask over the points and the error
    `error(q)` of a failing point q, in pipeline order; the mask of a value
    held once for every point has length 1 (or is a bool) and covers them
    all.  After the evaluation, the first ones reject non-finite inputs, then
    a source metric (at the point) or a target metric (at the image point)
    that is not positive definite, then a J that is not almost Hermitian.
    """
    tol = Tolerances  # the fixed thresholds
    at = lambda q: tuple(float(x) for x in points[q])
    src, seeds = fmap.source, jet_seeds(points)
    comps = [evaluate(c, seeds, fail) for c in fmap.components]
    image = stacked([c.value for c in comps], 1)
    # d_l DF[a, i] is the Hessian entry [a, l, i]
    grad, hess = stacked([c.gradient for c in comps], 1), stacked([c.hessian for c in comps], 2)
    N, (n, dim) = len(points), grad.shape[1:]
    DF = ArrayJet.constant(grad, dim) if _affine(hess) else ArrayJet(grad, hess)
    gT = grid_jet(fmap.target.metric, image, fail)
    J = None if src.complex_structure is None else grid_jet(src.complex_structure, points, fail)
    G = grid_jet(src.metric, points, fail)
    # chain rule: d_l gN_ab = sum_c d_l F^c (d_c g_ab)(F), a `Zero` when gT's derivative is one
    gN = ArrayJet(gT.v, (DF.v.swapaxes(1, 2) @ gT.d.reshape(-1, n, n * n)).reshape(-1, dim, n, n))
    for what, jet in (("source metric", G), ("map derivatives", DF),
                      ("target metric", gN), ("complex structure", J)):
        if jet is not None:
            finite = np.isfinite(jet.v.reshape(len(jet.v), -1)).all(1)
            if not jet.const:
                finite = finite & np.isfinite(jet.d.reshape(len(jet.d), -1)).all(1)
            fail(~finite, lambda q: NumericalOverflowError(f"numerical overflow in the {what}"))
    check_spd(G.v, "source metric", at, fail)
    check_spd(gT.v, "target metric",
              lambda q: f"{at(q)}, image point {tuple(map(float, at_point(image, q)))}", fail)
    if J is not None:
        jres = stacked(j_residuals(G.v, J.v), 1)
        fail((jres > tol.structural).any(axis=1), lambda q: StructureError(
            f"complex structure invalid at {at(q)}: J^2 residual {at_point(jres, q)[0]:.3e}, "
            f"compatibility residual {at_point(jres, q)[1]:.3e}"))
    inv = np.linalg.inv(G.v)
    # the derivatives built here by hand are built on first read, from operands bound now
    Ginv = ArrayJet.constant(inv, dim) if G.const else ArrayJet(
        inv, lambda inv=inv, dG=G.d: -(inv[:, None] @ dG @ inv[:, None]))  # -G^-1 dG G^-1

    horizontal = _gram_schmidt(G, DF @ Ginv.T, tol.drop, fail=fail)  # seeds: G^-1 grad F^a
    h = horizontal.v.shape[1]
    fail(h < n, lambda q: CriticalPointError(f"differential has rank {h} < {n} at {at(q)}"))
    coords = ArrayJet.constant(np.broadcast_to(eye(dim), G.v.shape), dim)
    vertical = _gram_schmidt(G, coords, tol.drop, against=horizontal, fail=fail)
    v = vertical.v.shape[1]
    fail(v != dim - n, lambda q: StructureError(
        f"vertical frame has {v} vectors, expected {dim - n} at {at(q)}"))

    FX = horizontal @ DF.T  # rows dF(X_a)
    gram = FX @ gN @ FX.T
    lsq = gram.v.trace(axis1=1, axis2=2) / n
    lambda_sq = ArrayJet.constant(lsq, dim) if gram.const else ArrayJet(
        lsq, lambda gram=gram: gram.d.trace(axis1=2, axis2=3) / n)
    fail(~np.isfinite(lsq), lambda q: NumericalOverflowError("numerical overflow in the square dilation"))
    conf_residual = np.abs(gram.v - lsq[:, None, None] * eye(n)).max(axis=(1, 2))
    fail(conf_residual > tol.conformality * lsq, lambda q: NotConformalError(
        f"not horizontally conformal at {at(q)}: residual {at_point(conf_residual, q):.3e} "
        f"against square dilation {at_point(lsq, q):.3e}"))

    PV = _projector(G, vertical)
    PH = _projector(G, horizontal)

    d1 = d2 = jd2 = mu = PMU = None
    if J is not None:
        Qm = PV @ (J @ PV)
        Qv = vertical.v @ G.v @ Qm.v @ vertical.v.swapaxes(1, 2)
        svals = np.linalg.svd(Qv, compute_uv=False)
        thr = 1.0 - tol.split_threshold
        n_d1 = (svals > thr).sum(1)
        # genuine structures give singular values at 1 or 0; anything in
        # between means the invariant subspace is not well separated
        between = (tol.split_margin <= svals) & (svals <= thr)
        fail(between.any(axis=1), lambda q: AmbiguousSplittingError(
            f"splitting ambiguous at {at(q)}: singular value "
            f"{at_point(svals, q)[at_point(between, q)][0]:.6f} between {tol.split_margin} and {thr:.7f}"))
        fail(n_d1 % 2 != 0, lambda q: StructureError(
            f"invariant vertical subspace has odd dimension {at_point(n_d1, q)} at {at(q)}"))
        # -(P_V J P_V)^2 projects onto the J-invariant part of the vertical space
        d1 = _gram_schmidt(G, -(vertical @ (Qm @ Qm).T), tol.drop, fail=fail)
        m1 = d1.v.shape[1]
        fail(n_d1 != m1, lambda q: StructureError(
            f"invariant frame has {m1} vectors but {at_point(n_d1, q)} singular values "
            f"above threshold at {at(q)}"))
        d2 = _gram_schmidt(G, vertical, tol.drop, against=d1, fail=fail)
        jd2 = _gram_schmidt(G, d2 @ J.T, tol.drop, fail=fail)
        fail(jd2.v.shape[1] != d2.v.shape[1],
             lambda q: StructureError(f"J(d2) frame degenerate at {at(q)}"))
        mu = _gram_schmidt(G, horizontal, tol.drop, against=jd2, fail=fail)
        m2, r = d2.v.shape[1], mu.v.shape[1]
        fail(m1 + m2 != v or m2 + r != h, lambda q: StructureError(
            f"split dims {(m1, m2, m2, r)} do not add up to {v} vertical and {h} horizontal at {at(q)}"))
        fail(r % 2 != 0, lambda q: StructureError(
            f"complement of J(d2) has odd dimension {r} at {at(q)}"))
        PMU = _projector(G, mu)

        JT = J.v.swapaxes(1, 2)
        Jd1 = d1.v @ JT
        PD1 = _projector(G, d1).v
        r_d1 = row_norms(Jd1 - Jd1 @ PD1.swapaxes(1, 2), G.v).max(axis=1, initial=0.0)
        r_d2 = row_norms(d2.v @ JT @ PV.v.swapaxes(1, 2), G.v).max(axis=1, initial=0.0)
        fail((r_d1 > tol.structural) | (r_d2 > tol.structural), lambda q: StructureError(
            f"vertical space is not semi-invariant at {at(q)}: "
            f"J(d1) residual {at_point(r_d1, q):.3e}, "
            f"J(d2) horizontality residual {at_point(r_d2, q):.3e}"))

    frame = np.concatenate((vertical.v, horizontal.v), axis=1)
    ortho = frame @ G.v @ frame.swapaxes(1, 2)
    off = np.abs(ortho - eye(dim)) > tol.structural

    def not_orthonormal(q):
        i, j = np.argwhere(at_point(off, q))[0]
        return StructureError(f"frame not orthonormal at {at(q)}: gram[{i},{j}] = {at_point(ortho, q)[i, j]}")

    fail(off.any(axis=(1, 2)), not_orthonormal)
    pushed = row_norms(vertical.v @ DF.v.swapaxes(1, 2), gN.v)
    big = pushed > tol.structural
    fail(big.any(axis=1), lambda q: StructureError(
        f"pushforward of vertical vector has norm {at_point(pushed, q)[at_point(big, q)][0]:.3e} at {at(q)}"))

    jets = dict(G=G, Ginv=Ginv, DF=DF, J=J, gN=gN, gT=gT, vertical=vertical, horizontal=horizontal,
                d1=d1, d2=d2, jd2=jd2, mu=mu, PV=PV, PH=PH, PMU=PMU, lambda_sq=lambda_sq)
    if all(len(x.v) == 1 for x in jets.values() if x is not None) and len(hess) == 1:
        N, points = 1, points[:1]  # a point-uniform run: one row, its first point's, for all its points
    return _Group(points=points, lam=full(np.sqrt(lsq), N), conf_residual=full(conf_residual, N),
                  **{name: None if x is None else x.full(N) for name, x in jets.items()})


# ---------------------------------------------------------------------------
# Contractions at every point of a group: `matmul` with the point axis as its
# batch axis, so that a point's numbers do not depend on the other points


def _T(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def _flat(W: np.ndarray) -> np.ndarray:
    """The vectors W[q, ..., k] as one stack W[q, m, k] per point."""
    return W.reshape(len(W), -1, W.shape[-1])


def _mapped(W: np.ndarray | Zero, M: np.ndarray) -> np.ndarray | Zero:
    """M[q] applied to the vectors W[q, ..., :]."""
    if type(W) is Zero:
        return Zero(W.shape[:-1] + M.shape[1:2])
    return (_flat(W) @ _T(M)).reshape(W.shape[:-1] + M.shape[1:2])


def _norms(w: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Metric norms of one vector w[q] per point."""
    return row_norms(w[:, None], G)[:, 0]


def pairs(table: np.ndarray | Zero, X: np.ndarray, Y: np.ndarray) -> np.ndarray | Zero:
    """Tables t[q, :, i, j] on stacks of vectors X[q, r], Y[q, s]: out[q, r, s] = t_q(X_r, Y_s)."""
    if type(table) is Zero:
        return Zero(table.shape[:1] + X.shape[1:2] + Y.shape[1:2] + table.shape[1:2])
    return (X[:, None] @ table @ _T(Y)[:, None]).transpose(0, 2, 3, 1)


@dataclass(eq=False)
class _Group:
    """The frame pass at points of a batch that share its run, and every table at them, point axis leading.

    Frames are `(N, k, dim)` jets, matrices `(N, dim, dim)`, and a field the
    same at every point is a read-only view of length N that repeats one
    point, unless every field is: then N = 1, and the one row, at the
    group's first point, stands for all its points.  The frames of the split
    and `PMU` are None without a complex structure.  Each table is built once, on first read: the second
    fundamental form `sff[q, :, i, j]` with values in the target chart,
    O'Neill's `t[q, :, i, j]` and `a[q, :, i, j]` on the coordinate fields
    d_i, d_j (skew-symmetric as operators in their second slot), the
    `tension[q]`, the trace of `sff` over the full orthonormal frame, and
    `fiber_mean_curvature[q]`, the normalized vertical trace of `t`.  On
    vectors the tables contract bilinearly (`pairs`).
    """

    points: np.ndarray
    G: ArrayJet
    Ginv: ArrayJet
    DF: ArrayJet  # DF.v[q, a, i] = d_i F^a
    J: ArrayJet | None
    gN: ArrayJet  # target metric at the image point, as a function on the source
    gT: ArrayJet  # target metric at the image point, derivatives in target coordinates
    vertical: ArrayJet
    horizontal: ArrayJet
    d1: ArrayJet | None
    d2: ArrayJet | None
    jd2: ArrayJet | None
    mu: ArrayJet | None
    PV: ArrayJet
    PH: ArrayJet
    PMU: ArrayJet | None
    lambda_sq: ArrayJet  # scalar jet: v[q] the square dilation, d[q] its coordinate gradient
    lam: np.ndarray
    conf_residual: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def memo(self, key, build):
        """build(), once per group and key."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return tuple(0 if x is None else x.v.shape[1] for x in (self.d1, self.d2, self.jd2, self.mu))

    @functools.cached_property
    def gamma_src(self) -> np.ndarray:
        return _levi_civita(self.G, self.Ginv.v)

    @functools.cached_property
    def kahler(self) -> np.ndarray | None:
        """|nabla J| at every point, the Kaehler test; None without J."""
        return None if self.J is None else nabla_j_norm(self.G.v, self.J, self.gamma_src)

    @functools.cached_property
    def gamma_pull(self) -> np.ndarray:
        """Gamma_N^a_cb d_l F^c at [q, a, l, b]: the target connection pulled back to the source."""
        return _T(self.DF.v)[:, None] @ _levi_civita(self.gT)

    def nabla(self, name: str) -> np.ndarray:
        """out[q, l, r] = nabla_{d_l} of row r of the pass's frame `name` (vertical, horizontal, d1 or d2)."""
        return self.memo(("nabla", name), lambda: nabla(self.gamma_src, getattr(self, name)))

    @functools.cached_property
    def adapted(self) -> "AdaptedFrame":
        """The side-b tables in the adapted frame; a group with a complex structure only."""
        return AdaptedFrame(self)

    # S[a, i, j] = d_i d_j F^a + Gamma_N^a_bc DF^b_i DF^c_j - Gamma^k_ij DF^a_k
    sff = functools.cached_property(
        lambda self: nabla(self.gamma_pull, self.DF.T).transpose(0, 3, 1, 2) - along(self.DF.v, self.gamma_src))

    # the projector columns P e_j as fields: _nabla_PV[q, l, j] = nabla_{d_l}(P_V e_j)
    _nabla_PV = functools.cached_property(lambda self: nabla(self.gamma_src, self.PV.T))
    _nabla_PH = functools.cached_property(lambda self: nabla(self.gamma_src, self.PH.T))
    t = functools.cached_property(lambda self: _oneill(self.PV.v, self.PH.v, self._nabla_PV, self._nabla_PH))
    a = functools.cached_property(lambda self: _oneill(self.PH.v, self.PV.v, self._nabla_PH, self._nabla_PV))

    @functools.cached_property
    def tension(self) -> np.ndarray:
        frame = np.concatenate((self.vertical.v, self.horizontal.v), axis=1)
        return pairs(self.sff, frame, frame).trace(axis1=1, axis2=2)

    @functools.cached_property
    def fiber_mean_curvature(self) -> np.ndarray:
        V = self.vertical.v
        return pairs(self.t, V, V).trace(axis1=1, axis2=2) / V.shape[1]

    # the differential of ln(lambda) in coordinates
    dln_lambda = functools.cached_property(lambda self: 0.5 * self.lambda_sq.d / self.lambda_sq.v[:, None])

    # grad ln(lambda), and lambda |H grad ln lambda| = |H grad lambda|, the g-norm of grad(lambda)'s horizontal part
    grad_ln_lambda = functools.cached_property(lambda self: _mapped(self.dln_lambda, self.Ginv.v))
    horizontal_dilation = functools.cached_property(
        lambda self: self.lam * _norms(_mapped(self.grad_ln_lambda, self.PH.v), self.G.v))


def _oneill(P, Q, nP, nQ) -> np.ndarray:
    """O'Neill's tensor Q nabla_{P e_i}(P e_j) + P nabla_{P e_i}(Q e_j) at [q, :, i, j] (T: P = P_V, A: P = P_H)."""
    return (_mapped(along(_T(P), nP), Q) + _mapped(along(_T(P), nQ), P)).transpose(0, 3, 1, 2)


class AdaptedFrame:
    """The tables of side b at a group's points, in the adapted frame E = [d1, d2, Jd2, mu].

    E is G-orthonormal (the pass checks it), so a vector is its row of E-components and g the dot
    product: Cartan's moving frame (Ivey & Landsberg, *Cartan for Beginners*, ch. 1-2).  Point axis
    first, each table built on first read: `omega[q, l, r, s] = g(nabla_{E_l} E_r, E_s)`, whose entries
    with l vertical (horizontal) and r, s on opposite sides are O'Neill's `T` (`A`); `J[q, r, s] =
    g(J E_r, E_s)`, `dJ[q, l, r, s] = E_l(J[q, r, s])`, and `phi`, `om`, `B`, `C` its parts in the
    vertical, Jd2, d2 and mu blocks (on rows: J X = X @ J); `S[q, l, r, a] = (nabla dF)(E_l, E_r)`,
    `push[q, r] = dF(E_r)`, `gram[q, r, s] = g_N(dF E_r, dF E_s)` and `pull[q, l, r, t] = g_N(nabla^F_{E_l}
    dF(E_r), dF(E_t)) = g_N(S[l, r], dF E_t) + sum_s omega[l, r, s] gram[s, t]`; `grad[q, s] = E_s(ln
    lambda)` and `horizontal_dilation[q]`, lambda times the norm of grad's horizontal part; `V`, `H`,
    `I`: the pass's frames and E's own rows.  The slices `d1`, `d2`, `jd2`, `mu`, `vert`, `hor` select
    blocks, which `PV` and `PH` project onto.  Side a never reads these tables.
    """

    def __init__(self, group: _Group):
        f = self._group = group
        m1, m2, _, _ = group.dims
        v = m1 + m2
        self.d1, self.d2, self.jd2, self.mu = slice(0, m1), slice(m1, v), slice(v, v + m2), slice(v + m2, None)
        self.vert, self.hor = slice(0, v), slice(v, None)
        frames = (f.d1, f.d2, f.jd2, f.mu)
        Ev = np.concatenate([x.v for x in frames], 1)
        self.E = (ArrayJet.constant(Ev, Ev.shape[-1]) if all(x.const for x in frames)
                  else ArrayJet(Ev, lambda: np.concatenate([x.d for x in frames], 2)))
        N, D, _ = self.E.v.shape
        self._GE = f.G.v @ _T(self.E.v)  # g(X, E_s) = (X @ GE)[s]
        self.V, self.H = f.vertical.v @ self._GE, f.horizontal.v @ self._GE
        self.I = np.broadcast_to(eye(D), (N, D, D))
        is_v = np.arange(D) < v
        self.PV, self.PH, mixed = np.diag(is_v * 1.0), np.diag(~is_v * 1.0), is_v[:, None] != is_v
        self._mask_T, self._mask_A = is_v[:, None, None] & mixed, ~is_v[:, None, None] & mixed

    omega = functools.cached_property(
        lambda self: along(self.E.v, nabla(self._group.gamma_src, self.E)) @ self._GE[:, None])
    T = functools.cached_property(lambda self: self.omega * self._mask_T)
    A = functools.cached_property(lambda self: self.omega * self._mask_A)
    _J = functools.cached_property(lambda self: self.E @ (self._group.J.T @ self._group.G) @ self.E.T)
    J = property(lambda self: self._J.v)
    dJ = functools.cached_property(lambda self: along(self.E.v, self._J.d))
    phi = functools.cached_property(lambda self: self.J @ self.PV)
    om = functools.cached_property(lambda self: self.J * self.I[0, self.jd2].sum(0))
    B = functools.cached_property(lambda self: self.J * self.I[0, self.d2].sum(0))
    C = functools.cached_property(lambda self: self.J * self.I[0, self.mu].sum(0))
    S = functools.cached_property(lambda self: pairs(self._group.sff, self.E.v, self.E.v))
    push = functools.cached_property(lambda self: self.E.v @ _T(self._group.DF.v))
    gram = functools.cached_property(lambda self: self.push @ self._group.gN.v @ _T(self.push))
    pull = functools.cached_property(
        lambda self: self.S @ (self._group.gN.v @ _T(self.push))[:, None] + self.omega @ self.gram[:, None])
    grad = functools.cached_property(lambda self: (self.E.v @ self._group.dln_lambda[..., None])[..., 0])
    horizontal_dilation = functools.cached_property(
        lambda self: self._group.lam * lengths(self.grad @ self.PH))

    def nabla(self, c: np.ndarray, dc: np.ndarray | None = None) -> np.ndarray:
        """out[q, l, r, s] = g(nabla_{E_l} F_r, E_s) for fields F_r = sum_s c[q, r, s] E_s, dc[q, l, r, s] =
        E_l(c[q, r, s]); without dc, for components in which c vanishes identically."""
        return c[:, None] @ self.omega if dc is None else c[:, None] @ self.omega + dc

    def pulled(self, c: np.ndarray, dc: np.ndarray | None = None) -> np.ndarray:
        """out[q, l, r, t] = g_N(nabla^F_{E_l} dF(F_r), dF(E_t)) for the fields of `nabla`; without dc, for
        directions t whose Gram entries with the components of c vanish up to the conformality residual."""
        return c[:, None] @ self.pull if dc is None else c[:, None] @ self.pull + dc @ self.gram[:, None]


class PointContext:
    """The entry of one point in its batch of one (`SmoothMap.context`).

    Kept for the step-by-step replica of the runner in `bench/layers.py`,
    until that replica is removed (ROADMAP item 1).
    """

    def __init__(self, entry: tuple | Exception):
        self._entry = entry

    @property
    def group(self) -> tuple[_Group, int]:
        """The group of the frame pass that holds this point, and its position there."""
        if isinstance(self._entry, Exception):
            raise self._entry
        return self._entry

    @property
    def split(self) -> SimpleNamespace:
        """The split's `dims`, the dilation `lam` and the conformality residual `lambda_sq_residual`, read
        from the group at this point; raises the point's error."""
        group, k = self.group
        return SimpleNamespace(dims=group.dims, lam=float(group.lam[k]),
                               lambda_sq_residual=float(group.conf_residual[k]))
