"""Central finite-difference oracles, independent of the jet machinery."""

import numpy as np

from confsub.config import DEFAULT_TOLERANCES
from confsub.expr import eval_jet2

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


def map_values(fmap, p):
    return np.array([eval_expr(c, p) for c in fmap.components])


def fd_map_jacobian(fmap, p, h=H):
    return fd_jacobian(lambda q: map_values(fmap, q), p, h)


class FrameField:
    """Row `index` of a frame family as a field; each value re-runs the frame pass."""

    def __init__(self, fmap, name, index, tol=DEFAULT_TOLERANCES):
        self.fmap, self.name, self.index, self.tol = fmap, name, index, tol

    def values_at(self, q):
        return getattr(self.fmap.context(q, self.tol).data, self.name).v[self.index]


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
    "PV", "PH", "PD1", "PD2", "PJD2", "PMU", "lambda_sq",
)


def _rel_gap(got, want):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    return float(np.max(np.abs(got - want), initial=0.0)) / scale


def pass_derivative_margins(fmap, p, tol, h=H):
    """Gap between each array jet's derivative part and central differences of its values.

    Every frame family, projector and the square dilation of the frame pass is
    compared with `fd_jacobian` of its values at p +- h e_l (derivative axis
    moved first, as in the jet), and the connection coefficients built from
    the metric jet with `fd_christoffel`.  Gaps are relative to
    max(1, largest reference entry); families a scene lacks are left out.
    """
    p = np.asarray(p, dtype=float)
    ctx = fmap.context(p, tol)
    out = {}
    for name in PASS_FIELDS:
        jet = getattr(ctx.data, name)
        if jet is None:
            continue
        fd = fd_jacobian(lambda q: getattr(fmap.context(q, tol).data, name).v, p, h)
        out[name] = _rel_gap(jet.d, np.moveaxis(fd, -1, 0))
    out["gamma_src"] = _rel_gap(ctx.gamma_src, fd_christoffel(fmap.source, p, h))
    return out


# the frame families whose covariant derivatives, and the pushed families whose
# pullback derivatives, the point context tabulates for the checkers
NABLA_FAMILIES = ("vertical", "horizontal", "d1", "d2", "mu", "Jd1", "Jd2", "BH", "phiV")
PULLBACK_FAMILIES = ("CH", "Jd2", "mu")


def table_margins(fmap, p, tol, h=H):
    """Gap between each per-point table of the context and a finite-difference oracle.

    The oracles use only values of the frame pass at p +- h e_l and
    `fd_christoffel`: the sff table against `fd_sff_table`; O'Neill's T and A
    against difference quotients of q -> P_V(q) e_j and q -> P_H(q) e_j; each
    family's covariant derivatives against `fd_jacobian` of its values plus
    the source connection; each pushed family's pullback derivatives against
    `fd_jacobian` of dF_q(F_q) plus the target connection.  Gaps are relative
    to max(1, largest reference entry); families a scene lacks are left out.
    """
    p = np.asarray(p, dtype=float)
    ctx = fmap.context(p, tol)
    seen = {}

    def at(q):
        key = tuple(q)
        if key not in seen:
            seen[key] = fmap.context(q, tol)
        return seen[key]

    gamma = fd_christoffel(fmap.source, p, h)
    gamma_n = fd_christoffel(fmap.target, map_values(fmap, p), h)
    DF = fd_map_jacobian(fmap, p, h)

    def cov(rows):  # nabla_{d_l} of each row of rows(q), at [l, r, k]
        d = np.moveaxis(fd_jacobian(rows, p, h), -1, 0)
        return d + np.einsum("kli,ri->lrk", gamma, rows(p))

    tt = ctx.tensors
    out = {"sff": _rel_gap(tt.sff, fd_sff_table(fmap, p, h))}
    PV, PH = ctx.PVf, ctx.PHf
    nV, nH = cov(lambda q: at(q).PVf.T), cov(lambda q: at(q).PHf.T)
    # T(e_i, e_j) = P_H nabla_{P_V e_i}(P_V e_j) + P_V nabla_{P_V e_i}(P_H e_j); A swaps V and H
    want_t = np.einsum("mk,li,ljk->mij", PH, PV, nV) + np.einsum("mk,li,ljk->mij", PV, PV, nH)
    want_a = np.einsum("mk,li,ljk->mij", PV, PH, nH) + np.einsum("mk,li,ljk->mij", PH, PH, nV)
    out["T"], out["A"] = _rel_gap(tt.t, want_t), _rel_gap(tt.a, want_a)
    for name in NABLA_FAMILIES:
        if len(ctx.family(name).v):
            out[f"nabla {name}"] = _rel_gap(ctx.nabla(name), cov(lambda q: at(q).family(name).v))
    for name in PULLBACK_FAMILIES:
        if len(ctx.family(name).v):
            pushed = lambda q: at(q).family(name).v @ at(q).DFf.T
            d = np.moveaxis(fd_jacobian(pushed, p, h), -1, 0)
            want = d + np.einsum("acb,cl,rb->lra", gamma_n, DF, pushed(p))
            out[f"pullback {name}"] = _rel_gap(ctx.pullback(name), want)
    return out
