"""Everything attached to a smooth map between charted manifolds.

Per point the engine builds a `PointContext`.  One frame pass on first-order
array jets (`jets.ArrayJet`: values `v[...]`, derivatives `d[l, ...] =
d_l v[...]`) builds the metric, Jacobian, orthonormal vertical/horizontal
frames, the invariant/anti-invariant refinement of the vertical space, the
dilation and all projectors; every pivot, drop and validation decision reads
the values only.  From those jets the context builds per-point tables, each
once and on first use: the second fundamental form `S[a, i, j]` from the
component Hessians, O'Neill's `T[:, i, j]` and `A[:, i, j]` from the projector
jets, and for each frame family the checkers differentiate the covariant
derivatives `nabla_{d_l}` of its rows and the pullback-connection derivatives
of their images under dF.  A structure-only run builds none of them.

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
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    AmbiguousSplittingError,
    BookkeepingError,
    CriticalPointError,
    NotConformalError,
    SingularMetricError,
    StructureError,
)
from .expr import Jet2, ScalarExpr, as_jet, evaluate, jet_seeds
from .geometry import (
    ChartedManifold,
    christoffel_symbols,
    complex_structure_jet,
    j_residuals,
    metric_jet,
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
    "jacobian",
    "phi_omega",
    "bc_decompose",
    "on_pairs",
    "along",
    "row_norms",
    "bookkeeping",
    "sff_identity_residuals",
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

    def context(self, p, tol: Tolerances = DEFAULT_TOLERANCES) -> "PointContext":
        """A new point context; its tables are built on first use and kept by the caller."""
        return PointContext(self, np.asarray(p, dtype=float), tol)


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
    """The submersion tensors at one point as coordinate tables.

    `t[:, i, j]` and `a[:, i, j]` are O'Neill's T and A on the coordinate
    fields d_i, d_j (skew-symmetric as operators in their second slot),
    `sff[:, i, j]` the second fundamental form with values in the target
    chart, `tension` its trace over the full orthonormal frame,
    `fiber_mean_curvature` the normalized vertical trace of `t`.  On vectors
    the tables contract bilinearly (`on_pairs`).
    """

    point: tuple[float, ...]
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
    horizontally_homothetic: bool


@dataclass
class _PipelineResult:
    """The frame pass at one point; frames are `(k, dim)` jets, matrices `(dim, dim)`."""

    G: ArrayJet
    Ginv: ArrayJet
    DF: ArrayJet  # DF.v[a, i] = d_i F^a
    J: ArrayJet | None
    gN: ArrayJet  # target metric at the image point, as a function on the source
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
    lambda_sq: ArrayJet  # scalar jet: v a float, d the coordinate gradient
    lam: float
    conf_residual: float


def _inverse(G: ArrayJet) -> ArrayJet:
    """Inverse with d(G^-1) = -G^-1 dG G^-1.

    Partial-pivot elimination on the values rejects a zero matrix and any pivot
    below 1e-14 of the largest entry.
    """
    U = G.v.tolist()  # plain floats: cheaper than numpy calls on a few rows
    n = len(U)
    scale = max(abs(x) for row in U for x in row)
    if scale == 0.0:
        raise SingularMetricError("zero matrix")
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(U[r][col]))
        if abs(U[pivot][col]) < 1e-14 * scale:
            raise SingularMetricError("singular matrix")
        U[col], U[pivot] = U[pivot], U[col]
        top = U[col]
        for r in range(col + 1, n):
            f = U[r][col] / top[col]
            if f != 0.0:
                U[r] = [x - f * y for x, y in zip(U[r], top)]
    inv = np.linalg.inv(G.v)
    return ArrayJet(inv, -(inv @ G.d @ inv))


@functools.lru_cache(maxsize=None)
def _half_lower(m: int) -> np.ndarray:
    """Mask that keeps the lower triangle and halves the diagonal (shared, read-only)."""
    mask = np.tri(m) - 0.5 * np.eye(m)
    mask.flags.writeable = False
    return mask


def _gram_schmidt(G: ArrayJet, seeds: ArrayJet, drop: float, against: ArrayJet | None = None):
    """Metric Gram-Schmidt of the seed rows in order, dropping near-dependent seeds.

    Seeds are first projected off the span of `against` (orthonormal rows, not
    returned).  Each seed is then projected against all earlier kept rows in
    one matrix-vector product and dropped when the value of its squared norm
    falls below drop**2.  The kept rows are B = L^-1 P, where P holds the kept
    projected seeds and P G P^T = L L^T with L lower triangular, so all their
    derivatives follow at once from the derivative of a Cholesky factor:
    dB = L^-1 dP - Phi(L^-1 dM L^-T) B with M = P G P^T, where Phi keeps the
    lower triangle and halves the diagonal.
    """
    if against is not None and not len(against.v):
        against = None
    Gv = G.v
    Pv = seeds.v if against is None else seeds.v - (seeds.v @ Gv @ against.v.T) @ against.v
    PG = Pv @ Gv
    k, dim = Pv.shape
    B = np.empty((k, dim))
    Linv = np.zeros((k, k))  # row j: B[j] as a combination of the kept seeds
    kept = []
    for i in range(k):
        m = len(kept)
        c = B[:m] @ PG[i]
        w = Pv[i] - c @ B[:m]
        n2 = float(w @ Gv @ w)
        if n2 >= drop * drop:
            r = 1.0 / math.sqrt(n2)
            B[m] = w * r
            Linv[m, :m] = -r * (c @ Linv[:m, :m])
            Linv[m, m] = r
            kept.append(i)
    m = len(kept)
    if m == 0:
        return ArrayJet(B[:0], np.zeros((dim, 0, dim)))
    B, Linv = B[:m], Linv[:m, :m]
    P = seeds if m == k else ArrayJet(seeds.v[kept], seeds.d[:, kept])
    if against is not None:
        P = P - (P @ G @ against.T) @ against
    PG = P @ G
    dM = PG.d @ P.v.T + PG.v @ P.T.d
    X = (Linv @ dM @ Linv.T) * _half_lower(m)
    return ArrayJet(B, Linv @ P.d - X @ B)


def _projector(G: ArrayJet, B: ArrayJet) -> ArrayJet:
    """Metric-orthogonal projection onto the span of orthonormal rows B: B^T B G."""
    return B.T @ (B @ G)


def row_norms(W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Metric norms of the vectors W[..., :]."""
    return np.sqrt(np.maximum(np.sum((W @ G) * W, axis=-1), 0.0))


def _run_pipeline(G: ArrayJet, DF: ArrayJet, J: ArrayJet | None, gN: ArrayJet,
                  tol: Tolerances, point) -> _PipelineResult:
    """The frame pass on array jets; every decision reads values only."""
    point = tuple(float(x) for x in point)
    dim, n = DF.v.shape[1], DF.v.shape[0]
    Ginv = _inverse(G)

    horizontal = _gram_schmidt(G, DF @ Ginv.T, tol.drop)  # seeds: G^-1 grad F^a
    if len(horizontal.v) < n:
        raise CriticalPointError(
            f"differential has rank {len(horizontal.v)} < {n} at {point}"
        )
    vertical = _gram_schmidt(G, ArrayJet.constant(np.eye(dim), dim), tol.drop, against=horizontal)
    if len(vertical.v) != dim - n:
        raise StructureError(
            f"vertical frame has {len(vertical.v)} vectors, expected {dim - n} at {point}"
        )

    FX = horizontal @ DF.T  # rows dF(X_a)
    gram = FX @ gN @ FX.T
    lambda_sq = ArrayJet(np.trace(gram.v) / n, np.trace(gram.d, axis1=1, axis2=2) / n)
    lsq = float(lambda_sq.v)
    conf_residual = float(np.max(np.abs(gram.v - lsq * np.eye(n))))
    if conf_residual > tol.conformality * lsq:
        raise NotConformalError(
            f"not horizontally conformal at {point}: residual {conf_residual:.3e} "
            f"against square dilation {lsq:.3e}"
        )

    PV = _projector(G, vertical)
    PH = _projector(G, horizontal)

    d1 = d2 = jd2 = mu = None
    PD1 = PD2 = PJD2 = PMU = None
    if J is not None:
        Qm = PV @ (J @ PV)
        Qv = vertical.v @ G.v @ Qm.v @ vertical.v.T
        svals = np.linalg.svd(Qv, compute_uv=False) if len(Qv) else np.array([])
        thr = 1.0 - tol.split_threshold
        n_d1 = int(np.sum(svals > thr))
        # genuine structures give singular values at 1 or 0; anything in
        # between means the invariant subspace is not well separated
        for s in svals:
            if tol.split_margin <= s <= thr:
                raise AmbiguousSplittingError(
                    f"splitting ambiguous at {point}: singular value {s:.6f} "
                    f"between {tol.split_margin} and {thr:.7f}"
                )
        if n_d1 % 2 != 0:
            raise StructureError(
                f"invariant vertical subspace has odd dimension {n_d1} at {point}"
            )
        # -(P_V J P_V)^2 projects onto the J-invariant part of the vertical space
        d1 = _gram_schmidt(G, -(vertical @ (Qm @ Qm).T), tol.drop)
        d2 = _gram_schmidt(G, vertical, tol.drop, against=d1)
        jd2 = _gram_schmidt(G, d2 @ J.T, tol.drop)
        mu = _gram_schmidt(G, horizontal, tol.drop, against=jd2)
        PD1 = _projector(G, d1)
        PD2 = _projector(G, d2)
        PJD2 = _projector(G, jd2)
        PMU = _projector(G, mu)

        if len(d1.v) != n_d1:
            raise StructureError(
                f"invariant frame has {len(d1.v)} vectors but {n_d1} singular values "
                f"above threshold at {point}"
            )
        if len(jd2.v) != len(d2.v):
            raise StructureError(f"J(d2) frame degenerate at {point}")
        if len(mu.v) % 2 != 0:
            raise StructureError(
                f"complement of J(d2) has odd dimension {len(mu.v)} at {point}"
            )
        Jd1 = d1.v @ J.v.T
        r_d1 = float(np.max(row_norms(Jd1 - Jd1 @ PD1.v.T, G.v), initial=0.0))
        r_d2 = float(np.max(row_norms(d2.v @ J.v.T @ PV.v.T, G.v), initial=0.0))
        if r_d1 > tol.structural or r_d2 > tol.structural:
            raise StructureError(
                f"vertical space is not semi-invariant at {point}: "
                f"J(d1) residual {r_d1:.3e}, J(d2) horizontality residual {r_d2:.3e}"
            )

    frame = np.vstack((vertical.v, horizontal.v))
    gram = frame @ G.v @ frame.T
    off = np.abs(gram - np.eye(dim)) > tol.structural
    if off.any():
        i, j = np.argwhere(off)[0]
        raise StructureError(f"frame not orthonormal at {point}: gram[{i},{j}] = {gram[i, j]}")
    pushed = row_norms(vertical.v @ DF.v.T, gN.v)
    if pushed.max() > tol.structural:
        r = pushed[np.argmax(pushed > tol.structural)]
        raise StructureError(f"pushforward of vertical vector has norm {r:.3e} at {point}")

    return _PipelineResult(
        G=G,
        Ginv=Ginv,
        DF=DF,
        J=J,
        gN=gN,
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
        lam=math.sqrt(lsq),
        conf_residual=conf_residual,
    )


def _value_view(name: str):
    """Read-only property: the value part of a pass field (None stays None)."""

    def get(self):
        jet = getattr(self.data, name)
        return None if jet is None else jet.v

    return property(get)


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


def on_pairs(table: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """A table t[:, i, j] on two vectors, or two stacks of them: out[a, b] = t(X_a, Y_b)."""
    return np.moveaxis(np.tensordot(np.tensordot(table, X, (1, -1)), Y, (1, -1)), 0, -1)


def along(X: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Derivatives along a vector, or a stack of vectors, from a table out[l, ...] = d_l(...)."""
    return np.tensordot(X, table, (-1, 0))


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
    """All pointwise data for a map at one sample point, computed lazily."""

    def __init__(self, fmap: SmoothMap, p: np.ndarray, tol: Tolerances):
        self.fmap = fmap
        self.p = p
        self.tol = tol
        self._cache: dict = {}

    def _get(self, name, builder):
        if name not in self._cache:
            self._cache[name] = builder()
        return self._cache[name]

    # -- raw jets ------------------------------------------------------------

    @property
    def comp_jets(self) -> list[Jet2]:
        def build():
            seeds = jet_seeds(self.p, second_order=True)
            n = self.fmap.source.dim
            return [as_jet(evaluate(c, seeds), n, second_order=True) for c in self.fmap.components]

        return self._get("comp_jets", build)

    @property
    def target_point(self) -> np.ndarray:
        return self._get("target_point", lambda: np.array([j.value for j in self.comp_jets]))

    @property
    def _target_metric(self) -> ArrayJet:
        """Target metric at the image point, derivatives in target coordinates."""
        return self._get("target_metric", lambda: metric_jet(self.fmap.target, self.target_point))

    # -- the frame pass ---------------------------------------------------------

    @property
    def data(self) -> _PipelineResult:
        def build():
            src = self.fmap.source
            dim, n = src.dim, self.fmap.target.dim
            comps = self.comp_jets
            # d_l DF[a, i] is the Hessian entry [a, l, i]
            DF = ArrayJet(
                np.array([c.gradient for c in comps]),
                np.array([c.hessian for c in comps]).transpose(1, 0, 2),
            )
            tgt = self._target_metric
            # chain rule: d_l gN_ab = sum_c d_l F^c (d_c g_ab)(F)
            gN = ArrayJet(tgt.v, (DF.v.T @ tgt.d.reshape(n, n * n)).reshape(dim, n, n))
            J = complex_structure_jet(src, self.p) if src.complex_structure is not None else None
            return _run_pipeline(metric_jet(src, self.p), DF, J, gN, self.tol, self.p)

        return self._get("data", build)

    # the stage names the layer timings of the benchmark read
    fdata = jdata = data

    # -- float views: the value parts of the pass ------------------------------

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

    @property
    def gamma_src(self) -> np.ndarray:
        return self._get("gamma_src", lambda: christoffel_symbols(self.data.G, self.p))

    @property
    def gamma_tgt(self) -> np.ndarray:
        return self._get(
            "gamma_tgt", lambda: christoffel_symbols(self._target_metric, self.target_point)
        )

    @property
    def gamma_pull(self) -> np.ndarray:
        """Gamma_N^a_cb d_l F^c at [a, l, b]: the target connection pulled back to the source."""
        return self._get("gamma_pull", lambda: np.einsum("acb,cl->alb", self.gamma_tgt, self.DFf))

    @property
    def split(self) -> SplitFrame:
        def build():
            f = self.data
            as_np = lambda jet: () if jet is None else tuple(jet.v)
            return SplitFrame(
                point=tuple(float(x) for x in self.p),
                vertical=as_np(f.vertical),
                horizontal=as_np(f.horizontal),
                d1=as_np(f.d1),
                d2=as_np(f.d2),
                jd2=as_np(f.jd2),
                mu=as_np(f.mu),
                lam=f.lam,
                lambda_sq_residual=f.conf_residual,
            )

        return self._get("split", build)

    def kahler_residuals(self) -> tuple[float, float, float]:
        """(|J^2 + I|, compatibility, |nabla J|) from the point's own jets: bit-identical to
        `geometry.complex_structure_residuals` and `nabla_j_residual`, which re-evaluate them."""
        gamma = self.gamma_src  # rejects a non-SPD metric first
        J = self.data.J
        r_square, r_compat = j_residuals(self.Gf, J.v)
        return r_square, r_compat, nabla_j_norm(self.Gf, J, gamma)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.split.dims

    # -- per-point tables --------------------------------------------------------

    def family(self, name: str) -> ArrayJet:
        """A frame family (see `_FAMILIES`) as stacked rows; empty without a complex structure."""

        def build():
            f = self.data
            if f.J is None and name not in ("vertical", "horizontal"):
                dim = len(self.p)
                return ArrayJet(np.zeros((0, dim)), np.zeros((dim, 0, dim)))
            return _FAMILIES[name](f)

        return self._get(("family", name), build)

    def nabla(self, name: str) -> np.ndarray:
        """out[l, r] = nabla_{d_l} of row r of the family."""
        return self._get(("nabla", name), lambda: nabla(self.gamma_src, self.family(name)))

    def pullback(self, name: str) -> np.ndarray:
        """out[l, r] = pullback-connection derivative along d_l of the section dF(row r)."""
        return self._get(
            ("pullback", name),
            lambda: nabla(self.gamma_pull, self.family(name) @ self.data.DF.T),
        )

    @property
    def tensors(self) -> FundamentalTensorsAtPoint:
        def build():
            f, gamma = self.data, self.gamma_src
            PV, PH, DF = f.PV.v, f.PH.v, f.DF.v
            # the projector columns P e_j as fields: nV[l, j] = nabla_{d_l}(P_V e_j)
            nV, nH = nabla(gamma, f.PV.T), nabla(gamma, f.PH.T)

            def oneill(P, Q, nP, nQ):  # Q nabla_{P e_i}(P e_j) + P nabla_{P e_i}(Q e_j)
                return np.moveaxis(along(P.T, nP) @ Q.T + along(P.T, nQ) @ P.T, -1, 0)

            # S[a, i, j] = d_i d_j F^a + Gamma_N^a_bc DF^b_i DF^c_j - Gamma^k_ij DF^a_k
            sff = np.moveaxis(nabla(self.gamma_pull, f.DF.T), -1, 0) - np.tensordot(DF, gamma, 1)
            t = oneill(PV, PH, nV, nH)
            V, frame = f.vertical.v, np.vstack((f.vertical.v, f.horizontal.v))
            return FundamentalTensorsAtPoint(
                point=tuple(float(x) for x in self.p),
                t=t,
                a=oneill(PH, PV, nH, nV),
                sff=sff,
                tension=np.einsum("aij,ri,rj->a", sff, frame, frame),
                fiber_mean_curvature=np.einsum("kij,ri,rj->k", t, V, V) / len(V),
            )

        return self._get("tensors", build)

    # -- pointwise helpers -------------------------------------------------------

    def gnorm(self, v) -> float:
        v = np.asarray(v, dtype=float)
        return math.sqrt(max(float(v @ self.Gf @ v), 0.0))

    def gn_norm(self, w) -> float:
        w = np.asarray(w, dtype=float)
        return math.sqrt(max(float(w @ self.GNf @ w), 0.0))

    def push(self, v) -> np.ndarray:
        return self.DFf @ np.asarray(v, dtype=float)

    # x -> P J x as matrices: phi and omega split J on the vertical space,
    # B and C on the horizontal space
    phi, omega, B, C = (
        property(lambda self, P=P: getattr(self, P) @ self.Jf)
        for P in ("PVf", "PJD2f", "PD2f", "PMUf")
    )

    @property
    def grad_ln_lambda(self) -> GradLnLambda:
        def build():
            lsq = self.data.lambda_sq
            vec = self.data.Ginv.v @ (0.5 * lsq.d / lsq.v)
            h = self.PHf @ vec
            h_norm = self.split.lam * self.gnorm(h)
            return GradLnLambda(
                vector=vec,
                horizontal_part=h,
                horizontal_norm=h_norm,
                horizontally_homothetic=bool(h_norm < self.tol.homothety),
            )

        return self._get("grad_ln_lambda", build)


# ---------------------------------------------------------------------------
# Public operations


def jacobian(fmap: SmoothMap, p, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Rows are the component gradients; the frame pass raises CriticalPointError at rank < n."""
    return fmap.context(p, tol).DFf


def _split_j(fmap: SmoothMap, p, v, tol: Tolerances, space: str, parts: str):
    """J(v) for v in the vertical or horizontal space, as the pair of its two parts."""
    ctx = fmap.context(p, tol)
    if ctx.Jf is None:
        raise StructureError("source manifold has no complex structure")
    v = np.asarray(v, dtype=float)
    proj = ctx.PVf if space == "vertical" else ctx.PHf
    res = ctx.gnorm(v - proj @ v)
    if res > 1e-8 * max(ctx.gnorm(v), 1.0):
        raise StructureError(f"vector is not {space} (residual {res:.3e})")
    first, second = (getattr(ctx, op) @ v for op in parts.split("/"))
    recon = ctx.gnorm(ctx.Jf @ v - first - second)
    if recon > tol.reconstruction * max(1.0, ctx.gnorm(v)):
        raise StructureError(f"{parts} reconstruction residual {recon:.3e} at {tuple(p)}")
    return first, second


def phi_omega(fmap: SmoothMap, p, v, tol: Tolerances = DEFAULT_TOLERANCES):
    """Split J(v), v vertical, into its vertical part and its J(d2) part."""
    return _split_j(fmap, p, v, tol, "vertical", "phi/omega")


def bc_decompose(fmap: SmoothMap, p, x, tol: Tolerances = DEFAULT_TOLERANCES):
    """Split J(x), x horizontal, into its d2 part and its mu part."""
    return _split_j(fmap, p, x, tol, "horizontal", "B/C")


def sff_identity_residuals(ctx: PointContext) -> tuple[float, float, float]:
    """Residuals of the conformal second-fundamental-form identities.

    Horizontal slots: (nabla dF)(X,Y) against the dilation-gradient expression;
    vertical slots: against -dF(T_V W); mixed slots: against -dF(A_X V).
    Each residual is the max g_N-norm gap over the respective frame pairs
    (unordered pairs where both slots range over the same frame).
    """
    tt, G, DF = ctx.tensors, ctx.Gf, ctx.DFf
    H, V = ctx.family("horizontal").v, ctx.family("vertical").v
    grad = ctx.grad_ln_lambda.vector
    pushed, dln = H @ DF.T, H @ G @ grad
    rhs = (dln[:, None, None] * pushed[None] + dln[None, :, None] * pushed[:, None]
           - (H @ G @ H.T)[:, :, None] * (DF @ grad))
    gaps = (
        (on_pairs(tt.sff, H, H) - rhs)[np.triu_indices(len(H))],
        (on_pairs(tt.sff, V, V) + on_pairs(tt.t, V, V) @ DF.T)[np.triu_indices(len(V))],
        on_pairs(tt.sff, H, V) + on_pairs(tt.a, H, V) @ DF.T,
    )
    return tuple(float(np.max(row_norms(g, ctx.GNf), initial=0.0)) for g in gaps)
