"""Central finite-difference oracles, independent of the jet machinery."""

import numpy as np

from confsub.expr import evaluate, value_of

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
    return value_of(evaluate(expr, [float(x) for x in p]))


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


def fd_sff(fmap, p, Xfield, Yfield, h=H):
    """Second fundamental form via finite differences of map and field values."""
    p = np.asarray(p, dtype=float)
    Xv = Xfield.values_at(p)
    Yv = Yfield.values_at(p)
    DF = fd_map_jacobian(fmap, p)

    # d_i (dF(Y))^a = sum_j (d_i d_j F^a) Y^j + (d_j F^a)(d_i Y^j)
    d2F = np.stack([fd_second(lambda q, c=c: eval_expr(c, q), p) for c in fmap.components])
    dY = fd_jacobian(lambda q: Yfield.values_at(q), p, h)
    term1 = np.einsum("aij,j,i->a", d2F, Yv, Xv) + np.einsum("aj,ji,i->a", DF, dY, Xv)

    gamma_n = fd_christoffel(fmap.target, map_values(fmap, p), h)
    term2 = np.einsum("abc,b,c->a", gamma_n, DF @ Xv, DF @ Yv)

    gamma_m = fd_christoffel(fmap.source, p, h)
    nab = dY @ Xv + np.einsum("kij,i,j->k", gamma_m, Xv, Yv)
    term3 = DF @ nab
    return term1 + term2 - term3


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
