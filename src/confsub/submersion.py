"""Everything attached to a smooth map between charted manifolds.

Per point the engine builds a `PointContext`: metric, Jacobian, orthonormal
vertical/horizontal frames, the invariant/anti-invariant refinement of the
vertical space, the dilation, and all projectors.  One pass builds them all on
first-order array jets (`jets.ArrayJet`: values `v[...]` and derivatives
`d[l, ...] = d_l v[...]`, derivative axis first), so every product rule is a
plain batched matrix product.  Frames are stacked arrays, `(k, dim)` values
with `(dim, k, dim)` derivatives, so every constructed frame field comes with
its first derivatives and brackets, covariant derivatives and the pullback
connection need no finite differencing.  Every pivot, drop and validation
decision reads the values only.

Frame construction is deterministic: horizontal seeds are the metric-raised
component gradients in component order, vertical seeds are the coordinate
fields in coordinate order, and Gram-Schmidt projects each seed against all
earlier basis vectors at once and drops seeds whose post-projection norm falls
below the drop tolerance.  The invariant part of the vertical space is the
range of -(P_V J P_V)^2, which is a smooth g-orthogonal projector whenever the
structure is genuinely semi-invariant; a singular value decomposition of
P_V J P_V validates the split and rejects ambiguous points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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
from .expr import Jet2, ScalarExpr, as_jet, evaluate, jet_seeds, value_of
from .geometry import (
    ChartedManifold,
    VectorField,
    christoffel_symbols,
    complex_structure_jet,
    j_residuals,
    metric_jet,
    nabla_j_norm,
)
from .jets import ArrayJet

__all__ = [
    "SmoothMap",
    "SplitFrame",
    "GradLnLambda",
    "FundamentalTensorsAtPoint",
    "PointContext",
    "FrameField",
    "jacobian",
    "split_frame",
    "phi_omega",
    "bc_decompose",
    "oneill_t",
    "oneill_a",
    "second_fundamental_form",
    "tension",
    "fiber_mean_curvature",
    "grad_ln_lambda",
    "fundamental_tensors",
    "sff_identity_residuals",
]


@dataclass(frozen=True)
class SmoothMap:
    source: ChartedManifold
    target: ChartedManifold
    components: tuple[ScalarExpr, ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if len(self.components) != self.target.dim:
            raise ValueError("component count must equal target dimension")
        if self.target.dim >= self.source.dim:
            raise ValueError("a submersion needs source dimension > target dimension")

    def context(self, p, tol: Tolerances = DEFAULT_TOLERANCES) -> "PointContext":
        key = (tuple(float(x) for x in p), tol)
        ctx = self._cache.get(key)
        if ctx is None:
            ctx = PointContext(self, np.asarray(p, dtype=float), tol)
            self._cache[key] = ctx
        return ctx

    def value_at(self, p) -> np.ndarray:
        return np.array([value_of(evaluate(c, p)) for c in self.components])


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
    """The submersion tensors at one point, bundled for callers.

    `t` and `a` are bilinear maps on coordinate vectors (skew-symmetric as
    operators in their second slot), `sff` the second fundamental form with
    values in the target chart, `tension` its trace over the full orthonormal
    frame, `fiber_mean_curvature` the normalized vertical trace of `t`.
    """

    point: tuple[float, ...]
    t: object  # (vector, vector) -> vector
    a: object
    sff: object  # (vector, vector) -> target vector
    tension: np.ndarray
    fiber_mean_curvature: np.ndarray


@dataclass(frozen=True)
class GradLnLambda:
    vector: np.ndarray  # riemannian gradient of ln(dilation)
    horizontal_part: np.ndarray
    vertical_part: np.ndarray
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


def _row_norms(W: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Metric norms of the rows of W."""
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
        r_d1 = float(np.max(_row_norms(Jd1 - Jd1 @ PD1.v.T, G.v), initial=0.0))
        r_d2 = float(np.max(_row_norms(d2.v @ J.v.T @ PV.v.T, G.v), initial=0.0))
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
    pushed = _row_norms(vertical.v @ DF.v.T, gN.v)
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
    Ginvf = _value_view("Ginv")
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

    def frame(self, name: str) -> list[np.ndarray]:
        """The named frame family as a list of value vectors."""

        def build():
            jet = getattr(self.data, name)
            return [] if jet is None else list(jet.v)

        return self._get(("frame", name), build)

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
        """(|J^2 + I|, compatibility, |nabla J|) from the point's own metric and J jets.

        Bit-identical to `geometry.complex_structure_residuals` and
        `geometry.nabla_j_residual`, which evaluate the same jets.
        """
        gamma = self.gamma_src  # rejects a non-SPD metric first
        J = self.data.J
        r_square, r_compat = j_residuals(self.Gf, J.v)
        return r_square, r_compat, nabla_j_norm(self.Gf, J, gamma)

    @property
    def has_j(self) -> bool:
        return self.fmap.source.complex_structure is not None

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.split.dims

    def bookkeeping(self) -> tuple[int, int, int]:
        """(m, n, r) with dim d1 = 2m, dim d2 = n, dim mu = 2r; validated."""
        d1, d2, _, mu = self.dims
        if d1 % 2 != 0 or mu % 2 != 0:
            raise BookkeepingError(f"odd distribution dimensions {self.dims}")
        m, n, r = d1 // 2, d2, mu // 2
        if 2 * (m + n + r) != self.fmap.source.dim or n + 2 * r != self.fmap.target.dim:
            raise BookkeepingError(
                f"dimension bookkeeping violated: dims {self.dims} against "
                f"{self.fmap.source.dim} -> {self.fmap.target.dim}"
            )
        return m, n, r

    # -- pointwise calculus on jets -------------------------------------------

    def gnorm(self, v) -> float:
        v = np.asarray(v, dtype=float)
        return math.sqrt(max(float(v @ self.Gf @ v), 0.0))

    def gn_norm(self, w) -> float:
        w = np.asarray(w, dtype=float)
        return math.sqrt(max(float(w @ self.GNf @ w), 0.0))

    def push(self, v) -> np.ndarray:
        return self.DFf @ np.asarray(v, dtype=float)

    def cov(self, Xv, Y: ArrayJet) -> np.ndarray:
        """nabla_X of a field given by its jet at the point (X a float vector)."""
        Xv = np.asarray(Xv, dtype=float)
        return Xv @ Y.d + (self.gamma_src @ Y.v) @ Xv

    def bracket(self, X: ArrayJet, Y: ArrayJet) -> np.ndarray:
        return X.v @ Y.d - Y.v @ X.d

    def section_push(self, X: ArrayJet) -> ArrayJet:
        """Jet of the pushforward section q -> dF_q(X_q)."""
        return self.data.DF @ X

    def pullback_deriv(self, Zv, section: ArrayJet) -> np.ndarray:
        """Pullback-connection derivative of a target-vector section along Z."""
        Zv = np.asarray(Zv, dtype=float)
        return Zv @ section.d + (self.gamma_tgt @ section.v) @ self.push(Zv)

    def sff_jets(self, X: ArrayJet, Y: ArrayJet) -> np.ndarray:
        """Second fundamental form on two fields given by jets at the point."""
        DF = self.DFf
        t1 = X.v @ self.section_push(Y).d
        t2 = (self.gamma_tgt @ (DF @ Y.v)) @ (DF @ X.v)
        t3 = DF @ self.cov(X.v, Y)
        return t1 + t2 - t3

    # -- extensions ------------------------------------------------------------

    def subframe_jets(self, name: str) -> list[ArrayJet]:
        """The named frame family as a list of vector jets."""

        def build():
            jet = getattr(self.data, name)
            return [] if jet is None else jet.rows()

        return self._get(("subframe_jets", name), build)

    def jsubframe_jets(self, name: str) -> list[ArrayJet]:
        """Jets of the complex structure applied to the named frame fields."""

        def build():
            jet = getattr(self.data, name)
            return [] if jet is None else (jet @ self.data.J.T).rows()

        return self._get(("jsubframe_jets", name), build)

    def extend(self, v, name: str) -> ArrayJet:
        """Constant-coefficient extension of a vector in the named frame family."""
        frame = getattr(self.data, name)
        if frame is None:
            return ArrayJet.constant(np.zeros(self.fmap.source.dim), self.fmap.source.dim)
        return (frame.v @ (self.Gf @ np.asarray(v, dtype=float))) @ frame

    def extend_full(self, v) -> ArrayJet:
        """Extension over the full vertical + horizontal frame."""
        v = np.asarray(v, dtype=float)
        return self.extend(self.PVf @ v, "vertical") + self.extend(self.PHf @ v, "horizontal")

    # -- J operators on fields (jets) and vectors (floats) ---------------------

    def jmul_jets(self, U: ArrayJet) -> ArrayJet:
        return self.data.J @ U

    def phi_jets(self, U: ArrayJet) -> ArrayJet:
        return self.data.PV @ self.jmul_jets(U)

    def omega_jets(self, U: ArrayJet) -> ArrayJet:
        return self.data.PJD2 @ self.jmul_jets(U)

    def b_jets(self, X: ArrayJet) -> ArrayJet:
        return self.data.PD2 @ self.jmul_jets(X)

    def c_jets(self, X: ArrayJet) -> ArrayJet:
        return self.data.PMU @ self.jmul_jets(X)

    def phi_vec(self, v):
        return self.PVf @ (self.Jf @ np.asarray(v, dtype=float))

    def omega_vec(self, v):
        return self.PJD2f @ (self.Jf @ np.asarray(v, dtype=float))

    def b_vec(self, x):
        return self.PD2f @ (self.Jf @ np.asarray(x, dtype=float))

    def c_vec(self, x):
        return self.PMUf @ (self.Jf @ np.asarray(x, dtype=float))

    # -- tensors ----------------------------------------------------------------

    def t_tensor(self, E, Gv) -> np.ndarray:
        """O'Neill T: horizontal part of nabla_{VE} (VG) plus vertical part of nabla_{VE} (HG)."""
        E = np.asarray(E, dtype=float)
        Gv = np.asarray(Gv, dtype=float)
        vE = self.PVf @ E
        VGj = self.extend(self.PVf @ Gv, "vertical")
        HGj = self.extend(self.PHf @ Gv, "horizontal")
        return self.PHf @ self.cov(vE, VGj) + self.PVf @ self.cov(vE, HGj)

    def a_tensor(self, E, Gv) -> np.ndarray:
        """O'Neill A: vertical part of nabla_{HE} (HG) plus horizontal part of nabla_{HE} (VG)."""
        E = np.asarray(E, dtype=float)
        Gv = np.asarray(Gv, dtype=float)
        hE = self.PHf @ E
        VGj = self.extend(self.PVf @ Gv, "vertical")
        HGj = self.extend(self.PHf @ Gv, "horizontal")
        return self.PVf @ self.cov(hE, HGj) + self.PHf @ self.cov(hE, VGj)

    def tension_direct(self) -> np.ndarray:
        """Trace of the second fundamental form over the full orthonormal frame."""
        out = np.zeros(self.fmap.target.dim)
        for name in ("vertical", "horizontal"):
            for jet in self.subframe_jets(name):
                out = out + self.sff_jets(jet, jet)
        return out

    def fiber_mean_curvature_vec(self) -> np.ndarray:
        vert = self.frame("vertical")
        if not vert:
            return np.zeros(self.fmap.source.dim)
        acc = np.zeros(self.fmap.source.dim)
        for v in vert:
            acc = acc + self.t_tensor(v, v)
        return acc / len(vert)

    @property
    def grad_ln_lambda(self) -> GradLnLambda:
        def build():
            lsq = self.data.lambda_sq
            vec = self.Ginvf @ (0.5 * lsq.d / lsq.v)
            h = self.PHf @ vec
            v = self.PVf @ vec
            h_norm = self.split.lam * self.gnorm(h)
            return GradLnLambda(
                vector=vec,
                horizontal_part=h,
                vertical_part=v,
                horizontal_norm=h_norm,
                horizontally_homothetic=bool(h_norm < self.tol.homothety),
            )

        return self._get("grad_ln_lambda", build)

    def dln_lambda(self, v) -> float:
        """Directional derivative of ln(dilation) along a vector at the point."""
        return float(np.asarray(v, dtype=float) @ self.Gf @ self.grad_ln_lambda.vector)


class FrameField(VectorField):
    """A constructed frame vector as a smooth field (re-runs the pipeline per point)."""

    def __init__(self, fmap: SmoothMap, name: str, index: int, tol: Tolerances = DEFAULT_TOLERANCES):
        self.fmap = fmap
        self.name = name
        self.index = index
        self.tol = tol
        self.dim = fmap.source.dim

    def values_at(self, p) -> np.ndarray:
        return self.fmap.context(p, self.tol).frame(self.name)[self.index]

    def jets_at(self, p) -> ArrayJet:
        ctx = self.fmap.context(p, self.tol)
        return ctx.subframe_jets(self.name)[self.index]


# ---------------------------------------------------------------------------
# Public operations


def jacobian(fmap: SmoothMap, p, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Rows are the component gradients; raises CriticalPointError if rank-deficient."""
    ctx = fmap.context(p, tol)
    DF = ctx.DFf
    svals = np.linalg.svd(DF, compute_uv=False)
    if svals[-1] <= 1e-10 * max(svals[0], 1.0):
        raise CriticalPointError(f"rank-deficient differential at {tuple(p)}")
    return DF


def split_frame(fmap: SmoothMap, p, tol: Tolerances = DEFAULT_TOLERANCES) -> SplitFrame:
    return fmap.context(p, tol).split


def _check_in_span(ctx: PointContext, v, proj, what: str):
    v = np.asarray(v, dtype=float)
    res = ctx.gnorm(v - proj @ v)
    scale = max(ctx.gnorm(v), 1.0)
    if res > 1e-8 * scale:
        raise StructureError(f"vector is not {what} (residual {res:.3e})")


def phi_omega(fmap: SmoothMap, p, v, tol: Tolerances = DEFAULT_TOLERANCES):
    """Split J(v), v vertical, into its vertical part and its J(d2) part."""
    ctx = fmap.context(p, tol)
    if ctx.Jf is None:
        raise StructureError("source manifold has no complex structure")
    _check_in_span(ctx, v, ctx.PVf, "vertical")
    phi = ctx.phi_vec(v)
    omega = ctx.omega_vec(v)
    recon = ctx.gnorm(ctx.Jf @ np.asarray(v, dtype=float) - phi - omega)
    if recon > tol.reconstruction * max(1.0, ctx.gnorm(v)):
        raise StructureError(f"phi/omega reconstruction residual {recon:.3e} at {tuple(p)}")
    return phi, omega


def bc_decompose(fmap: SmoothMap, p, x, tol: Tolerances = DEFAULT_TOLERANCES):
    """Split J(x), x horizontal, into its d2 part and its mu part."""
    ctx = fmap.context(p, tol)
    if ctx.Jf is None:
        raise StructureError("source manifold has no complex structure")
    _check_in_span(ctx, x, ctx.PHf, "horizontal")
    b = ctx.b_vec(x)
    c = ctx.c_vec(x)
    recon = ctx.gnorm(ctx.Jf @ np.asarray(x, dtype=float) - b - c)
    if recon > tol.reconstruction * max(1.0, ctx.gnorm(x)):
        raise StructureError(f"B/C reconstruction residual {recon:.3e} at {tuple(p)}")
    return b, c


def oneill_t(fmap: SmoothMap, p, E, G, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    return fmap.context(p, tol).t_tensor(E, G)


def oneill_a(fmap: SmoothMap, p, E, G, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    return fmap.context(p, tol).a_tensor(E, G)


def _field_jets(ctx: PointContext, X):
    if isinstance(X, VectorField):
        return X.jets_at(ctx.p)
    return ctx.extend_full(np.asarray(X, dtype=float))


def second_fundamental_form(
    fmap: SmoothMap, p, X, Y, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """(nabla dF)(X, Y); vectors are extended by constant frame coefficients."""
    ctx = fmap.context(p, tol)
    return ctx.sff_jets(_field_jets(ctx, X), _field_jets(ctx, Y))


def tension(fmap: SmoothMap, p, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    return fmap.context(p, tol).tension_direct()


def fiber_mean_curvature(fmap: SmoothMap, p, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    return fmap.context(p, tol).fiber_mean_curvature_vec()


def grad_ln_lambda(fmap: SmoothMap, p, tol: Tolerances = DEFAULT_TOLERANCES) -> GradLnLambda:
    return fmap.context(p, tol).grad_ln_lambda


def fundamental_tensors(
    fmap: SmoothMap, p, tol: Tolerances = DEFAULT_TOLERANCES
) -> FundamentalTensorsAtPoint:
    ctx = fmap.context(p, tol)
    return FundamentalTensorsAtPoint(
        point=tuple(float(x) for x in ctx.p),
        t=ctx.t_tensor,
        a=ctx.a_tensor,
        sff=lambda X, Y: ctx.sff_jets(_field_jets(ctx, X), _field_jets(ctx, Y)),
        tension=ctx.tension_direct(),
        fiber_mean_curvature=ctx.fiber_mean_curvature_vec(),
    )


def sff_identity_residuals(
    fmap: SmoothMap, p, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[float, float, float]:
    """Residuals of the conformal second-fundamental-form identities.

    Horizontal slots: (nabla dF)(X,Y) against the dilation-gradient expression;
    vertical slots: against -dF(T_V W); mixed slots: against -dF(A_X V).
    Each residual is the max g_N-norm gap over the respective frame pairs.
    """
    ctx = fmap.context(p, tol)
    grad = ctx.grad_ln_lambda
    horiz = ctx.frame("horizontal")
    vert = ctx.frame("vertical")
    horiz_j = ctx.subframe_jets("horizontal")
    vert_j = ctx.subframe_jets("vertical")
    push_grad = ctx.push(grad.vector)

    r_h = 0.0
    for a, X in enumerate(horiz):
        for b in range(a, len(horiz)):
            Y = horiz[b]
            lhs = ctx.sff_jets(horiz_j[a], horiz_j[b])
            rhs = (
                ctx.dln_lambda(X) * ctx.push(Y)
                + ctx.dln_lambda(Y) * ctx.push(X)
                - float(X @ ctx.Gf @ Y) * push_grad
            )
            r_h = max(r_h, ctx.gn_norm(lhs - rhs))

    r_v = 0.0
    for i, V in enumerate(vert):
        for j in range(i, len(vert)):
            W = vert[j]
            lhs = ctx.sff_jets(vert_j[i], vert_j[j])
            rhs = -ctx.push(ctx.t_tensor(V, W))
            r_v = max(r_v, ctx.gn_norm(lhs - rhs))

    r_m = 0.0
    for a, X in enumerate(horiz):
        for i, V in enumerate(vert):
            lhs = ctx.sff_jets(horiz_j[a], vert_j[i])
            rhs = -ctx.push(ctx.a_tensor(X, V))
            r_m = max(r_m, ctx.gn_norm(lhs - rhs))

    return r_h, r_v, r_m
