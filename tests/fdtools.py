"""Test oracles: central finite differences, independent of the jet machinery, and
single-point formulas for fields, connections and brackets on the batch of one.

The single-point oracles (`covariant_derivative`, `lie_bracket`) keep formulas of
their own: they do not call the stacked `nabla`, `brackets` or `along` of the
frame pass.
"""

import numpy as np

from confsub.expr import eval_jet2, parse
from confsub.geometry import _levi_civita, check_spd, grid_jet
from confsub.jets import ArrayJet

from .conftest import entry

H = 1e-5


def fd_gradient(f, p, h=H):
    p = np.asarray(p, dtype=float)
    g = np.zeros(p.shape[0])
    for i in range(p.shape[0]):
        e = np.zeros_like(p)
        e[i] = h
        g[i] = (f(p + e) - f(p - e)) / (2 * h)
    return g


def fd_jacobian(f, p, h=H):
    """Rows: d(f_k)/d(x_i) for a vector-valued f."""
    p = np.asarray(p, dtype=float)
    cols = []
    for i in range(p.shape[0]):
        e = np.zeros_like(p)
        e[i] = h
        cols.append((np.asarray(f(p + e)) - np.asarray(f(p - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def fd_second(f, p, h=1e-4):
    """Dense Hessian of a scalar f by second differences."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = (f(p + ei) - 2 * f(p) + f(p - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            v = (f(p + ei + ej) - f(p + ei - ej) - f(p - ei + ej) + f(p - ei - ej)) / (4 * h * h)
            out[i, j] = out[j, i] = v
    return out


def eval_expr(expr, p):
    """The value of an expression at a point: the value part of its batch of one."""
    return float(eval_jet2(expr, [p]).value[0])


def metric_values(manifold, p):
    d = manifold.dim
    return np.array([[eval_expr(manifold.metric[i][j], p) for j in range(d)] for i in range(d)])


def fd_christoffel(manifold, p, h=H):
    """Levi-Civita coefficients from finite differences of the metric values."""
    d = manifold.dim
    G = metric_values(manifold, p)
    dG = np.zeros((d, d, d))  # dG[l, i, j] = d_l g_ij
    for l in range(d):
        e = np.zeros(d)
        e[l] = h
        dG[l] = (metric_values(manifold, np.asarray(p) + e) - metric_values(manifold, np.asarray(p) - e)) / (2 * h)
    Ginv = np.linalg.inv(G)
    sym = dG + dG.transpose(1, 0, 2) - np.einsum("lij->ijl", dG)
    return 0.5 * np.einsum("kl,ijl->kij", Ginv, sym)


def j_values(manifold, p):
    d = manifold.dim
    J = manifold.complex_structure
    return np.array([[eval_expr(J[i][j], p) for j in range(d)] for i in range(d)])


def fd_nabla_j(manifold, p, h=H):
    """Max g-norm over coordinate pairs (i, j) of (nabla_{d_i} J) d_j: zero iff Kaehler at p.

    Built from central differences of J's values and `fd_christoffel`.
    """
    J, G = j_values(manifold, p), metric_values(manifold, p)
    gamma = fd_christoffel(manifold, p, h)
    dJ = fd_jacobian(lambda q: j_values(manifold, q), p, h)  # dJ[k, j, i] = d_i J^k_j
    # component k of (nabla_{d_i} J) d_j = d_i J^k_j + Gamma^k_im J^m_j - J^k_m Gamma^m_ij
    nab = dJ + np.einsum("kim,mj->kji", gamma, J) - np.einsum("km,mij->kji", J, gamma)
    sq = np.einsum("kji,kl,lji->ji", nab, G, nab)
    return float(np.sqrt(max(float(np.max(sq)), 0.0)))


def map_values(fmap, p):
    return np.array([eval_expr(c, p) for c in fmap.components])


def fd_map_jacobian(fmap, p, h=H):
    return fd_jacobian(lambda q: map_values(fmap, q), p, h)


# ---------------------------------------------------------------------------
# Single-point oracles on the batch of one


def metric_jet(manifold, p) -> ArrayJet:
    """The metric jet at p, the batch of one: values v[0, i, j], derivatives d[0, l, i, j]."""
    return grid_jet(manifold.metric, [p])


def christoffel_symbols(g: ArrayJet, p) -> np.ndarray:
    """Gamma^k_ij at [k, i, j] from the metric jet of the batch of one at p; raises NonSPDMetricError."""
    check_spd(g.v, "metric", lambda q: tuple(float(x) for x in p))
    return _levi_civita(g)[0]


class ExprField:
    """A vector field of component expressions."""

    def __init__(self, components, dim: int):
        if len(components) != dim:
            raise ValueError("component count must equal dimension")
        self.components = tuple(components)
        self.dim = dim

    @classmethod
    def from_strings(cls, texts, dim: int) -> "ExprField":
        return cls([parse(t, dim) for t in texts], dim)

    def values_at(self, p) -> np.ndarray:
        return self.jets_at(p).v[0]

    def jets_at(self, p) -> ArrayJet:
        return grid_jet(self.components, [p])


class ConstantField:
    """A vector field with the same components everywhere."""

    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=float)
        self.dim = self.vec.shape[0]

    def values_at(self, p) -> np.ndarray:
        return self.vec.copy()

    def jets_at(self, p) -> ArrayJet:
        return ArrayJet.constant(self.vec[None], self.dim)


def covariant_derivative(M, Y, X, p) -> np.ndarray:
    """(nabla_X Y)^k = X^i d_i Y^k + Gamma^k_ij X^i Y^j at p (X a vector at p, Y a field)."""
    gamma, Yj = christoffel_symbols(metric_jet(M, p), p), Y.jets_at(p)
    return np.asarray(X, dtype=float) @ (Yj.d[0] + np.einsum("kli,i->lk", gamma, Yj.v[0]))


def lie_bracket(X, Y, p) -> np.ndarray:
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k at p, for two fields."""
    Xj, Yj = X.jets_at(p), Y.jets_at(p)
    return Xj.v[0] @ Yj.d[0] - Yj.v[0] @ Xj.d[0]


def on_pairs(table, X, Y) -> np.ndarray:
    """A table t[:, i, j] of one point on two vectors: t(X, Y)."""
    return np.einsum("aij,i,j->a", table, X, Y)


class FrameField:
    """Row `index` of one of the pass's frames as a field; each value re-runs the frame pass on the batch of one."""

    def __init__(self, fmap, name, index):
        self.fmap, self.name, self.index = fmap, name, index

    def values_at(self, q):
        g, k = entry(self.fmap, q)
        return getattr(g, self.name).v[k, self.index]


# ---------------------------------------------------------------------------
# The frame pass against finite differences


def fd_sff_table(fmap, p, h=H):
    """(nabla dF)(d_i, d_j) at [a, i, j] from finite differences of map and metric values.

    The Hessians are Richardson-extrapolated second differences at 1e-3 and
    2e-3 (error of order h^4), so they carry ~1e-9 of rounding error instead
    of ~1e-7 at h = 1e-4.
    """
    p = np.asarray(p, dtype=float)
    DF = fd_map_jacobian(fmap, p, h)
    d2F = np.stack([
        (4.0 * fd_second(f, p, 1e-3) - fd_second(f, p, 2e-3)) / 3.0
        for f in (lambda q, c=c: eval_expr(c, q) for c in fmap.components)
    ])
    gamma_n = fd_christoffel(fmap.target, map_values(fmap, p), h)
    gamma_m = fd_christoffel(fmap.source, p, h)
    pulled = np.einsum("abc,bi,cj->aij", gamma_n, DF, DF)
    return d2F + pulled - np.einsum("ak,kij->aij", DF, gamma_m)


def fd_sff(fmap, p, Xfield, Yfield, h=H):
    """Second fundamental form via finite differences of map, metric and field values.

    (nabla dF)(X, Y) = X(dF(Y)) + Gamma_N(dF X, dF Y) - dF(nabla_X Y); the
    derivative of Y enters both the first and the last term and cancels, so
    the result is the finite-difference table on the values of X and Y.
    """
    p = np.asarray(p, dtype=float)
    X, Y = Xfield.values_at(p), Yfield.values_at(p)
    return np.einsum("aij,i,j->a", fd_sff_table(fmap, p, h), X, Y)


PASS_FIELDS = (
    "vertical", "horizontal", "d1", "d2", "jd2", "mu",
    "PV", "PH", "PMU", "lambda_sq",
)


def _rel_gap(got, want):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return float(np.max(np.abs(got - want), initial=0.0)) / scale


def pass_derivative_margins(fmap, p, g, k, h=H):
    """Gap between each array jet's derivative part at p, whose entry is `(g, k)`, and central differences.

    Every frame, projector and the square dilation of the frame pass is
    compared with `fd_jacobian` of its values at p +- h e_l, each a batch of
    one (derivative axis moved first, as in the jet), and the connection
    coefficients built from the metric jet with `fd_christoffel`.  Gaps are
    relative to max(1, largest reference entry); frames a scene lacks are
    left out.
    """
    p = np.asarray(p, dtype=float)
    out = {}
    for name in PASS_FIELDS:
        jet = getattr(g, name)
        if jet is None:
            continue
        fd = fd_jacobian(lambda q: getattr(entry(fmap, q)[0], name).v[0], p, h)
        out[name] = _rel_gap(jet.d[k], np.moveaxis(fd, -1, 0))
    out["gamma_src"] = _rel_gap(g.gamma_src[k], fd_christoffel(fmap.source, p, h))
    return out


# the frames of the pass whose covariant derivatives side a reads, and the
# tables of the adapted frame that side b reads
FRAMES = ("vertical", "horizontal", "d1", "d2")
ADAPTED = ("omega", "dJ", "pull")


def table_margins(fmap, p, g, k, h=H):
    """Gap between each table of the group `g` at point k, the point p, and a finite-difference oracle.

    The oracles use only values of the frame pass at p +- h e_l and
    `fd_christoffel`: the sff table against `fd_sff_table`; O'Neill's T and A
    against difference quotients of q -> P_V(q) e_j and q -> P_H(q) e_j; the
    covariant derivatives of each frame of the pass against `fd_jacobian` of
    its values plus the source connection.  With a complex structure, the
    adapted frame's tables (`submersion.AdaptedFrame`) are checked the same
    way: omega from difference quotients of the rows E(q) plus the source
    connection, dJ from difference quotients of q -> g(J E_r, E_s)(q), and
    the pullback table from difference quotients of q -> dF_q(E(q)) plus the
    target connection, each paired with E, G and g_N at p.  Gaps are relative
    to max(1, largest reference entry); frames a scene lacks are left out.
    """
    p = np.asarray(p, dtype=float)
    seen = {}

    def at(q):  # the group of the batch of one at q
        key = tuple(q)
        if key not in seen:
            seen[key] = entry(fmap, q)[0]
        return seen[key]

    gamma = fd_christoffel(fmap.source, p, h)
    gamma_n = fd_christoffel(fmap.target, map_values(fmap, p), h)
    DF = fd_map_jacobian(fmap, p, h)

    def deriv(values):  # d_l of values(q), derivative axis first
        return np.moveaxis(fd_jacobian(values, p, h), -1, 0)

    def cov(rows):  # nabla_{d_l} of each row of rows(q), at [l, r, k]
        return deriv(rows) + np.einsum("kli,ri->lrk", gamma, rows(p))

    out = {"sff": _rel_gap(g.sff[k], fd_sff_table(fmap, p, h))}
    PV, PH = g.PV.v[k], g.PH.v[k]
    nV, nH = cov(lambda q: at(q).PV.v[0].T), cov(lambda q: at(q).PH.v[0].T)
    # T(e_i, e_j) = P_H nabla_{P_V e_i}(P_V e_j) + P_V nabla_{P_V e_i}(P_H e_j); A swaps V and H
    want_t = np.einsum("mk,li,ljk->mij", PH, PV, nV) + np.einsum("mk,li,ljk->mij", PV, PV, nH)
    want_a = np.einsum("mk,li,ljk->mij", PV, PH, nH) + np.einsum("mk,li,ljk->mij", PH, PH, nV)
    out["T"], out["A"] = _rel_gap(g.t[k], want_t), _rel_gap(g.a[k], want_a)
    for name in FRAMES:
        frame = getattr(g, name)
        if frame is not None and frame.v.shape[1]:
            out[f"nabla {name}"] = _rel_gap(g.nabla(name)[k], cov(lambda q: getattr(at(q), name).v[0]))
    if g.J is None:
        return out
    A = g.adapted
    E, G, GN = A.E.v[k], g.G.v[k], g.gN.v[k]
    rows = lambda q: at(q).adapted.E.v[0]
    out["omega"] = _rel_gap(A.omega[k], np.einsum("ml,lrk,kj,sj->mrs", E, cov(rows), G, E))
    out["dJ"] = _rel_gap(A.dJ[k], np.einsum("ml,lrs->mrs", E, deriv(lambda q: at(q).adapted.J[0])))
    pushed = lambda q: rows(q) @ at(q).DF.v[0].T
    npushed = deriv(pushed) + np.einsum("acb,cl,rb->lra", gamma_n, DF, pushed(p))
    out["pull"] = _rel_gap(A.pull[k], np.einsum("ml,lra,ab,tb->mrt", E, npushed, GN, pushed(p)))
    return out


# ---------------------------------------------------------------------------
# Gram-Schmidt with its inverse factor built in the loop


def orthonormal_rows(Gv, Pv, drop):
    """The value loop of Gram-Schmidt that builds L^-1 beside B, step by step: the reference for the
    trimmed loop `submersion._orthonormal_rows` and its replay `_inverse_factor`.

    Returns (B = Linv Pv with a zero row per dropped seed, Linv, kept seeds, points whose squared
    norms are all finite).
    """
    PG = Pv @ Gv
    N, k, dim = PG.shape
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
