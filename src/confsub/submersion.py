"""Everything attached to a smooth map between charted manifolds.

`SmoothMap.frame_pass(points)` runs the frame pass over all sample points as
one batch and returns, per point, its entry: the group of points that share
a pass run (`_Group`) and its position k there, or its own first error.  A
point is addressed as `(group, k)`: every value and table of a group carries
the point axis first, and index k is the point's.  The map, both metrics and
J are evaluated once on jets of all the points (`expr.Jet2`), and one frame
pass on first-order array jets (`jets.ArrayJet`: values `v[q, ...]`,
derivatives `d[q, l, ...] = d_l v[q, ...]`) builds the metric, Jacobian,
orthonormal vertical/horizontal frames, the invariant/anti-invariant
refinement of the vertical space, the dilation and all projectors; every
drop and validation decision reads the values only, against the fixed
thresholds of `config.Tolerances`.  Its first validations are finiteness,
the positive definiteness of the source metric at the point and of the
target metric at the image point, and that J is almost Hermitian
(J^2 = -I, g(JX, JY) = g(X, Y)), so nothing after them meets a metric that
is not Riemannian or a J that is not almost Hermitian.  Points whose
Gram-Schmidt drops differ run as separate groups, and a point's numbers are
the same bit for bit in any batch.

Each group builds its tables once and on first use, with the point axis
leading: the connections, the Kaehler test, the second fundamental form
`S[q, a, i, j]` from the component Hessians, O'Neill's `T[q, :, i, j]` and
`A[q, :, i, j]` from the projector jets, and for each frame family the
covariant derivatives `nabla_{d_l}` of its rows and the pullback-connection
derivatives of their images under dF.  Every contraction is a `matmul` with
the point axis as its batch axis.  A structure-only run builds none of them.

Frame construction is deterministic: horizontal seeds are the metric-raised
component gradients in component order, vertical seeds are the coordinate
fields in coordinate order, and Gram-Schmidt drops seeds whose norm falls
below the drop tolerance after projection against all earlier basis vectors.
The invariant part of the vertical space is the range of -(P_V J P_V)^2; a
singular value decomposition of P_V J P_V validates the split and rejects
ambiguous points.  A scene declared machinery-only has no J from the start.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import Tolerances
from .errors import (
    AmbiguousSplittingError,
    BookkeepingError,
    CriticalPointError,
    NotConformalError,
    NumericalOverflowError,
    StructureError,
)
from .expr import ScalarExpr, evaluate, jet_seeds, keep_first, raise_first
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
from .jets import ArrayJet

__all__ = [
    "SmoothMap",
    "SplitFrame",
    "GradLnLambda",
    "FundamentalTensorsAtPoint",
    "PointContext",
    "pairs",
    "row_norms",
    "bookkeeping",
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

        The expressions are evaluated on jets of every point and the frame
        pass runs on the points that evaluated.  A point that fails records
        its first error, in pipeline order, and leaves the batch; points whose
        Gram-Schmidt drops differ go on in separate groups.  Either way the
        pass restarts on the remaining points, which repeats their numbers bit
        for bit: every operation acts on each point on its own.  A point's
        entry is its group (`_Group`) and position k there, or its error;
        `members` are the indices of a group's points, in order.
        """
        if not len(points):
            return [], []
        points, errors = np.array(points, dtype=float), {}
        inputs = _input_jets(self, points, keep_first(errors))
        alive = np.array([q for q in range(len(points)) if q not in errors], dtype=int)
        groups, pending = [], [alive] if len(alive) else []
        with np.errstate(all="ignore"):  # non-finite values fail their point explicitly
            while pending:
                idx = pending.pop()

                def fail(bad, error, idx=idx):
                    if not np.any(bad):
                        return
                    bad = np.flatnonzero(np.broadcast_to(bad, idx.shape))
                    errors.update((int(idx[q]), error(q)) for q in bad)
                    raise _Regroup([np.setdiff1d(np.arange(len(idx)), bad)])

                try:
                    res = _run_pipeline(*(None if x is None else x[idx] for x in inputs), points[idx], fail)
                except _Regroup as split:
                    pending += [idx[g] for g in split.groups if len(g)]
                else:
                    groups.append((idx, _Group(res, points[idx])))
        entries = [errors.get(q) for q in range(len(points))]
        for members, group in groups:
            for k, q in enumerate(members.tolist()):
                entries[q] = (group, k)
        return entries, groups

    def context(self, p, tol: Tolerances | None = None) -> "PointContext":
        """The entry of p in `frame_pass([p])`, the batch of one; `tol` is not read."""
        (entry,), _ = self.frame_pass([p])
        return PointContext(entry)


@dataclass(frozen=True)
class SplitFrame:
    """Point-local orthonormal frames and the dilation."""

    point: tuple[float, ...]
    vertical: tuple[np.ndarray, ...]
    horizontal: tuple[np.ndarray, ...]
    d1: tuple[np.ndarray, ...]
    d2: tuple[np.ndarray, ...]
    jd2: tuple[np.ndarray, ...]
    mu: tuple[np.ndarray, ...]
    lam: float
    lambda_sq_residual: float

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (len(self.d1), len(self.d2), len(self.jd2), len(self.mu))


@dataclass(frozen=True)
class FundamentalTensorsAtPoint:
    """The submersion tensors of a group as coordinate tables, point axis leading.

    `t[q, :, i, j]` and `a[q, :, i, j]` are O'Neill's T and A on the
    coordinate fields d_i, d_j (skew-symmetric as operators in their second
    slot), `sff[q, :, i, j]` the second fundamental form with values in the
    target chart, `tension[q]` its trace over the full orthonormal frame,
    `fiber_mean_curvature[q]` the normalized vertical trace of `t`.  On
    vectors the tables contract bilinearly (`pairs`).
    """

    t: np.ndarray
    a: np.ndarray
    sff: np.ndarray
    tension: np.ndarray
    fiber_mean_curvature: np.ndarray


@dataclass(frozen=True)
class GradLnLambda:
    vector: np.ndarray  # riemannian gradient of ln(dilation)
    horizontal_part: np.ndarray
    horizontal_norm: float  # g-norm of the horizontal part of grad(dilation)


@dataclass
class _PipelineResult:
    """The frame pass at a group's points: frames are `(N, k, dim)` jets, matrices `(N, dim, dim)`.

    Every jet and array carries the point axis first.
    """

    G: ArrayJet
    Ginv: ArrayJet
    DF: ArrayJet  # DF.v[q, a, i] = d_i F^a
    J: ArrayJet | None
    j_residuals: np.ndarray | None  # [q] = (|J^2 + I|, compatibility), validated by the pass
    gN: ArrayJet  # target metric at the image point, as a function on the source
    gT: ArrayJet  # target metric at the image point, derivatives in target coordinates
    image: np.ndarray  # the image points F(p)
    vertical: ArrayJet
    horizontal: ArrayJet
    d1: ArrayJet | None
    d2: ArrayJet | None
    jd2: ArrayJet | None
    mu: ArrayJet | None
    PV: ArrayJet
    PH: ArrayJet
    PD1: ArrayJet | None
    PD2: ArrayJet | None
    PJD2: ArrayJet | None
    PMU: ArrayJet | None
    lambda_sq: ArrayJet  # scalar jet: v[q] the square dilation, d[q] its coordinate gradient
    lam: np.ndarray
    conf_residual: np.ndarray


class _Regroup(Exception):
    """Inside the batched pass: go on with these groups of the batch's points (positions)."""

    def __init__(self, groups):
        super().__init__()
        self.groups = groups


@functools.lru_cache(maxsize=None)
def _half_lower(m: int) -> np.ndarray:
    """Mask that keeps the lower triangle and halves the diagonal (shared, read-only)."""
    mask = np.tri(m) - 0.5 * np.eye(m)
    mask.flags.writeable = False
    return mask


def _orthonormal_rows(Gv: np.ndarray, Pv: np.ndarray, drop: float):
    """The value loop of `_gram_schmidt`: (B = Linv Pv with a zero row per dropped seed,
    Linv, kept seeds, points whose squared norms are all finite)."""
    PG = Pv @ Gv
    N, k, dim = Pv.shape
    B = np.zeros((N, k, dim))
    Linv = np.zeros((N, k, k))  # row j: B[j] as a combination of the seeds
    keep = np.zeros((N, k), dtype=bool)
    finite = np.ones(N, dtype=bool)
    for i in range(k):
        c = (B[:, :i] @ PG[:, i, :, None])[..., 0]
        w = Pv[:, i] - (c[:, None] @ B[:, :i])[:, 0]
        n2 = (w[:, None] @ Gv @ w[..., None])[:, 0, 0]
        finite &= np.isfinite(n2)
        ok = keep[:, i] = n2 >= drop * drop
        r = np.where(ok, 1.0 / np.sqrt(np.where(ok, n2, 1.0)), 0.0)
        B[:, i] = w * r[:, None]
        Linv[:, i, :i] = -r[:, None] * (c[:, None] @ Linv[:, :i, :i])[:, 0]
        Linv[:, i, i] = r
    return B, Linv, keep, finite


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
    lower triangle and halves the diagonal.
    """
    if against is not None and not against.v.shape[1]:
        against = None
    Gv = G.v
    Pv = seeds.v
    if against is not None:
        Pv = Pv - (Pv @ Gv @ against.v.swapaxes(1, 2)) @ against.v
    B, Linv, keep, finite = _orthonormal_rows(Gv, Pv, drop)
    N, k, dim = Pv.shape
    fail(~finite, lambda q: NumericalOverflowError("numerical overflow in a Gram-Schmidt squared norm"))
    if (keep != keep[:1]).any():
        _, group = np.unique(keep, axis=0, return_inverse=True)
        group = group.ravel()
        raise _Regroup([np.flatnonzero(group == g) for g in range(group.max() + 1)])
    kept = np.flatnonzero(keep[0])
    m = len(kept)
    if m == 0:
        return ArrayJet(B[:, :0], np.zeros((N, dim, 0, dim)))
    B, Linv = np.take(B, kept, axis=1), np.take(np.take(Linv, kept, axis=1), kept, axis=2)
    P = seeds if m == k else seeds.rows(kept)
    if against is not None:
        P = P - (P @ G @ against.T) @ against
    dM = (P @ G @ P.T).d
    X = (Linv[:, None] @ dM @ Linv.swapaxes(1, 2)[:, None]) * _half_lower(m)
    return ArrayJet(B, Linv[:, None] @ P.d - X @ B[:, None])


def _projector(G: ArrayJet, B: ArrayJet) -> ArrayJet:
    """Metric-orthogonal projection onto the span of orthonormal rows B: B^T B G."""
    return B.T @ (B @ G)


def row_norms(W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Metric norms of the vectors W[..., :]."""
    return np.sqrt(np.maximum(np.sum((W @ G) * W, axis=-1), 0.0))


def _input_jets(fmap: SmoothMap, points: np.ndarray, fail):
    """(G, DF, J, gT, image) at stacked points.

    Evaluated in the order map, target metric, J, source metric, which is the
    order in which a point's first error is found.
    """
    src, seeds = fmap.source, jet_seeds(points)
    comps = [evaluate(c, seeds, fail) for c in fmap.components]
    image = np.stack([c.value for c in comps], axis=1)
    # d_l DF[a, i] is the Hessian entry [a, l, i]
    DF = ArrayJet(np.stack([c.gradient for c in comps], 1), np.stack([c.hessian for c in comps], 2))
    gT = grid_jet(fmap.target.metric, image, fail)
    J = None if src.complex_structure is None else grid_jet(src.complex_structure, points, fail)
    G = grid_jet(src.metric, points, fail)
    return G, DF, J, gT, image


def _run_pipeline(G: ArrayJet, DF: ArrayJet, J: ArrayJet | None, gT: ArrayJet, image: np.ndarray,
                  points: np.ndarray, fail) -> _PipelineResult:
    """The frame pass on array jets; every decision reads values only.

    Each validation calls `fail(bad, error)` with a mask over the points and
    the error `error(q)` of a failing point q, in pipeline order.  The first
    ones reject non-finite inputs, then a source metric (at the point) or a
    target metric (at the image point) that is not positive definite, then
    a J that is not almost Hermitian.
    """
    tol = Tolerances  # the fixed thresholds
    at = lambda q: tuple(float(x) for x in points[q])
    N, n, dim = DF.v.shape
    # chain rule: d_l gN_ab = sum_c d_l F^c (d_c g_ab)(F)
    gN = ArrayJet(gT.v, (DF.v.swapaxes(1, 2) @ gT.d.reshape(N, n, n * n)).reshape(N, dim, n, n))
    for what, jet in (("source metric", G), ("map derivatives", DF),
                      ("target metric", gN), ("complex structure", J)):
        if jet is not None:
            finite = np.isfinite(jet.v.reshape(N, -1)).all(1) & np.isfinite(jet.d.reshape(N, -1)).all(1)
            fail(~finite, lambda q: NumericalOverflowError(f"numerical overflow in the {what}"))
    check_spd(G.v, "source metric", at, fail)
    check_spd(gT.v, "target metric", lambda q: f"{at(q)}, image point {tuple(map(float, image[q]))}", fail)
    jres = None
    if J is not None:
        jres = np.stack(j_residuals(G.v, J.v), axis=1)
        fail((jres > tol.structural).any(axis=1), lambda q: StructureError(
            f"complex structure invalid at {at(q)}: "
            f"J^2 residual {jres[q, 0]:.3e}, compatibility residual {jres[q, 1]:.3e}"))
    inv = np.linalg.inv(G.v)
    Ginv = ArrayJet(inv, -(inv[:, None] @ G.d @ inv[:, None]))  # d(G^-1) = -G^-1 dG G^-1

    horizontal = _gram_schmidt(G, DF @ Ginv.T, tol.drop, fail=fail)  # seeds: G^-1 grad F^a
    h = horizontal.v.shape[1]
    fail(h < n, lambda q: CriticalPointError(f"differential has rank {h} < {n} at {at(q)}"))
    eye = ArrayJet.constant(np.broadcast_to(np.eye(dim), G.v.shape), dim)
    vertical = _gram_schmidt(G, eye, tol.drop, against=horizontal, fail=fail)
    v = vertical.v.shape[1]
    fail(v != dim - n, lambda q: StructureError(
        f"vertical frame has {v} vectors, expected {dim - n} at {at(q)}"))

    FX = horizontal @ DF.T  # rows dF(X_a)
    gram = FX @ gN @ FX.T
    lsq = np.trace(gram.v, axis1=1, axis2=2) / n
    lambda_sq = ArrayJet(lsq, np.trace(gram.d, axis1=2, axis2=3) / n)
    fail(~np.isfinite(lsq), lambda q: NumericalOverflowError("numerical overflow in the square dilation"))
    conf_residual = np.max(np.abs(gram.v - lsq[:, None, None] * np.eye(n)), axis=(1, 2))
    fail(conf_residual > tol.conformality * lsq, lambda q: NotConformalError(
        f"not horizontally conformal at {at(q)}: residual {conf_residual[q]:.3e} "
        f"against square dilation {lsq[q]:.3e}"))

    PV = _projector(G, vertical)
    PH = _projector(G, horizontal)

    d1 = d2 = jd2 = mu = None
    PD1 = PD2 = PJD2 = PMU = None
    if J is not None:
        Qm = PV @ (J @ PV)
        Qv = vertical.v @ G.v @ Qm.v @ vertical.v.swapaxes(1, 2)
        svals = np.linalg.svd(Qv, compute_uv=False)
        thr = 1.0 - tol.split_threshold
        n_d1 = np.sum(svals > thr, axis=1)
        # genuine structures give singular values at 1 or 0; anything in
        # between means the invariant subspace is not well separated
        between = (tol.split_margin <= svals) & (svals <= thr)
        fail(between.any(axis=1), lambda q: AmbiguousSplittingError(
            f"splitting ambiguous at {at(q)}: singular value {svals[q][between[q]][0]:.6f} "
            f"between {tol.split_margin} and {thr:.7f}"))
        fail(n_d1 % 2 != 0, lambda q: StructureError(
            f"invariant vertical subspace has odd dimension {n_d1[q]} at {at(q)}"))
        # -(P_V J P_V)^2 projects onto the J-invariant part of the vertical space
        d1 = _gram_schmidt(G, -(vertical @ (Qm @ Qm).T), tol.drop, fail=fail)
        m1 = d1.v.shape[1]
        fail(n_d1 != m1, lambda q: StructureError(
            f"invariant frame has {m1} vectors but {n_d1[q]} singular values "
            f"above threshold at {at(q)}"))
        d2 = _gram_schmidt(G, vertical, tol.drop, against=d1, fail=fail)
        jd2 = _gram_schmidt(G, d2 @ J.T, tol.drop, fail=fail)
        fail(jd2.v.shape[1] != d2.v.shape[1],
             lambda q: StructureError(f"J(d2) frame degenerate at {at(q)}"))
        mu = _gram_schmidt(G, horizontal, tol.drop, against=jd2, fail=fail)
        r = mu.v.shape[1]
        fail(r % 2 != 0, lambda q: StructureError(
            f"complement of J(d2) has odd dimension {r} at {at(q)}"))
        PD1, PD2, PJD2, PMU = (_projector(G, f) for f in (d1, d2, jd2, mu))

        JT = J.v.swapaxes(1, 2)
        Jd1 = d1.v @ JT
        r_d1 = np.max(row_norms(Jd1 - Jd1 @ PD1.v.swapaxes(1, 2), G.v), axis=1, initial=0.0)
        r_d2 = np.max(row_norms(d2.v @ JT @ PV.v.swapaxes(1, 2), G.v), axis=1, initial=0.0)
        fail((r_d1 > tol.structural) | (r_d2 > tol.structural), lambda q: StructureError(
            f"vertical space is not semi-invariant at {at(q)}: "
            f"J(d1) residual {r_d1[q]:.3e}, J(d2) horizontality residual {r_d2[q]:.3e}"))

    frame = np.concatenate((vertical.v, horizontal.v), axis=1)
    gram = frame @ G.v @ frame.swapaxes(1, 2)
    off = np.abs(gram - np.eye(dim)) > tol.structural

    def not_orthonormal(q):
        i, j = np.argwhere(off[q])[0]
        return StructureError(f"frame not orthonormal at {at(q)}: gram[{i},{j}] = {gram[q, i, j]}")

    fail(off.any(axis=(1, 2)), not_orthonormal)
    pushed = row_norms(vertical.v @ DF.v.swapaxes(1, 2), gN.v)
    big = pushed > tol.structural
    fail(big.any(axis=1), lambda q: StructureError(
        f"pushforward of vertical vector has norm {pushed[q][big[q]][0]:.3e} at {at(q)}"))

    return _PipelineResult(
        G=G,
        Ginv=Ginv,
        DF=DF,
        J=J,
        j_residuals=jres,
        gN=gN,
        gT=gT,
        image=image,
        vertical=vertical,
        horizontal=horizontal,
        d1=d1,
        d2=d2,
        jd2=jd2,
        mu=mu,
        PV=PV,
        PH=PH,
        PD1=PD1,
        PD2=PD2,
        PJD2=PJD2,
        PMU=PMU,
        lambda_sq=lambda_sq,
        lam=np.sqrt(lsq),
        conf_residual=conf_residual,
    )


# ---------------------------------------------------------------------------
# Contractions at every point of a group: `matmul` with the point axis as its
# batch axis, so that a point's numbers do not depend on the other points


def _T(x: np.ndarray) -> np.ndarray:
    return x.swapaxes(-1, -2)


def _flat(W: np.ndarray) -> np.ndarray:
    """The vectors W[q, ..., k] as one stack W[q, m, k] per point."""
    return W.reshape(len(W), -1, W.shape[-1])


def _mapped(W: np.ndarray, M: np.ndarray) -> np.ndarray:
    """M[q] applied to the vectors W[q, ..., :]."""
    return (_flat(W) @ _T(M)).reshape(W.shape[:-1] + M.shape[1:2])


def _norms(w: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Metric norms of one vector w[q] per point."""
    return row_norms(w[:, None], G)[:, 0]


def pairs(table: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Tables t[q, :, i, j] on stacks of vectors X[q, r], Y[q, s]: out[q, r, s] = t_q(X_r, Y_s)."""
    return np.moveaxis(X[:, None] @ table @ _T(Y)[:, None], 1, -1)


# Frame families whose derivatives the checkers read: the frames of the pass
# and the fields J(d1), J(d2), B(X) = P_D2 J X, C(X) = P_mu J X on the
# horizontal frame and phi(V) = P_V J V on the vertical frame.
_FAMILIES = {
    "vertical": lambda f: f.vertical,
    "horizontal": lambda f: f.horizontal,
    "d1": lambda f: f.d1,
    "d2": lambda f: f.d2,
    "mu": lambda f: f.mu,
    "Jd1": lambda f: f.d1 @ f.J.T,
    "Jd2": lambda f: f.d2 @ f.J.T,
    "BH": lambda f: f.horizontal @ (f.PD2 @ f.J).T,
    "CH": lambda f: f.horizontal @ (f.PMU @ f.J).T,
    "phiV": lambda f: f.vertical @ (f.PV @ f.J).T,
}


def _value_view(name: str):
    """Read-only property: the values of a pass field (None stays None)."""

    def get(self):
        jet = getattr(self.data, name)
        return None if jet is None else jet.v

    return property(get)


class _Group:
    """Points of a batch that share a frame-pass run and every table at them, point axis leading.

    `data` is their pass at `points`; each table is built once, on first use.
    """

    def __init__(self, data: _PipelineResult, points: np.ndarray):
        self.data = data
        self.points = points
        self._memo: dict = {}

    Gf = _value_view("G")
    GNf = _value_view("gN")
    DFf = _value_view("DF")
    Jf = _value_view("J")
    PVf = _value_view("PV")
    PHf = _value_view("PH")
    PD1f = _value_view("PD1")
    PD2f = _value_view("PD2")
    PJD2f = _value_view("PJD2")
    PMUf = _value_view("PMU")

    # x -> P J x as matrices: phi and omega split J on the vertical space,
    # B and C on the horizontal space
    phi, omega, B, C = (
        property(lambda self, P=P: getattr(self, P) @ self.Jf)
        for P in ("PVf", "PJD2f", "PD2f", "PMUf")
    )

    def memo(self, key, build):
        """build(), once per group and key."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def dims(self) -> tuple[int, int, int, int]:
        f = self.data
        return tuple(0 if x is None else x.v.shape[1] for x in (f.d1, f.d2, f.jd2, f.mu))

    def split(self, k: int) -> SplitFrame:
        """The frames and the dilation at point k."""
        f = self.data
        as_np = lambda jet: () if jet is None else tuple(jet.v[k])
        return SplitFrame(
            point=tuple(float(x) for x in self.points[k]),
            vertical=as_np(f.vertical),
            horizontal=as_np(f.horizontal),
            d1=as_np(f.d1),
            d2=as_np(f.d2),
            jd2=as_np(f.jd2),
            mu=as_np(f.mu),
            lam=float(f.lam[k]),
            lambda_sq_residual=float(f.conf_residual[k]),
        )

    @functools.cached_property
    def gamma_src(self) -> np.ndarray:
        return _levi_civita(self.data.G)

    @functools.cached_property
    def kahler(self) -> tuple | None:
        """(|J^2 + I|, compatibility, |nabla J|) at every point; None without J."""
        f = self.data
        if f.J is None:
            return None
        return (*f.j_residuals.T, nabla_j_norm(f.G.v, f.J, self.gamma_src))

    @functools.cached_property
    def gamma_pull(self) -> np.ndarray:
        """Gamma_N^a_cb d_l F^c at [q, a, l, b]: the target connection pulled back to the source."""
        return _T(self.DFf)[:, None] @ _levi_civita(self.data.gT)

    def family(self, name: str) -> ArrayJet:
        """A frame family (see `_FAMILIES`) as stacked rows; empty without a complex structure."""
        f = self.data
        if f.J is None and name not in ("vertical", "horizontal"):
            N, dim = f.G.v.shape[:2]
            return ArrayJet(np.zeros((N, 0, dim)), np.zeros((N, dim, 0, dim)))
        return self.memo(("family", name), lambda: _FAMILIES[name](f))

    def nabla(self, name: str) -> np.ndarray:
        """out[q, l, r] = nabla_{d_l} of row r of the family."""
        return self.memo(("nabla", name), lambda: nabla(self.gamma_src, self.family(name)))

    def pullback(self, name: str) -> np.ndarray:
        """out[q, l, r] = pullback-connection derivative along d_l of the section dF(row r)."""
        return self.memo(("pullback", name),
                         lambda: nabla(self.gamma_pull, self.family(name) @ self.data.DF.T))

    @functools.cached_property
    def tensors(self) -> FundamentalTensorsAtPoint:
        f, gamma = self.data, self.gamma_src
        # the projector columns P e_j as fields: nV[q, l, j] = nabla_{d_l}(P_V e_j)
        nV, nH = nabla(gamma, f.PV.T), nabla(gamma, f.PH.T)

        def oneill(P, Q, nP, nQ):  # Q nabla_{P e_i}(P e_j) + P nabla_{P e_i}(Q e_j)
            return np.moveaxis(_mapped(along(_T(P), nP), Q) + _mapped(along(_T(P), nQ), P), -1, 1)

        # S[a, i, j] = d_i d_j F^a + Gamma_N^a_bc DF^b_i DF^c_j - Gamma^k_ij DF^a_k
        sff = np.moveaxis(nabla(self.gamma_pull, f.DF.T), -1, 1) - along(self.DFf, gamma)
        t = oneill(self.PVf, self.PHf, nV, nH)
        V, frame = f.vertical.v, np.concatenate((f.vertical.v, f.horizontal.v), axis=1)
        return FundamentalTensorsAtPoint(
            t=t,
            a=oneill(self.PHf, self.PVf, nH, nV),
            sff=sff,
            tension=np.trace(pairs(sff, frame, frame), axis1=1, axis2=2),
            fiber_mean_curvature=np.trace(pairs(t, V, V), axis1=1, axis2=2) / V.shape[1],
        )

    @functools.cached_property
    def grad_ln_lambda(self) -> GradLnLambda:
        lsq = self.data.lambda_sq
        vec = _mapped(0.5 * lsq.d / lsq.v[:, None], self.data.Ginv.v)
        h = _mapped(vec, self.PHf)
        return GradLnLambda(vector=vec, horizontal_part=h,
                            horizontal_norm=self.data.lam * _norms(h, self.Gf))


def bookkeeping(dims, dim_source: int, dim_target: int) -> tuple[int, int, int]:
    """(m, n, r) with dim d1 = 2m, dim d2 = n, dim mu = 2r; validated against both charts."""
    d1, d2, _, mu = dims
    if d1 % 2 != 0 or mu % 2 != 0:
        raise BookkeepingError(f"odd distribution dimensions {dims}")
    m, n, r = d1 // 2, d2, mu // 2
    if 2 * (m + n + r) != dim_source or n + 2 * r != dim_target:
        raise BookkeepingError(
            f"dimension bookkeeping violated: dims {dims} against {dim_source} -> {dim_target}"
        )
    return m, n, r


class PointContext:
    """The entry of one point in its batch of one (`SmoothMap.context`)."""

    def __init__(self, entry: tuple | Exception):
        self._entry = entry

    @property
    def group(self) -> tuple[_Group, int]:
        """The group of the frame pass that holds this point, and its position there."""
        if isinstance(self._entry, Exception):
            raise self._entry
        return self._entry

    @property
    def split(self) -> SplitFrame:
        group, k = self.group
        return group.split(k)
