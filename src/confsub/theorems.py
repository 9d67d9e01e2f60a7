"""Two-sided checkers for the characterization results of conformal semi-invariant submersions.

Each checker computes two residuals independently at a sample point:

* ``residual_a`` is the definition-level statement (bracket components,
  covariant-derivative components against a complementary frame, norms of the
  second fundamental form, the horizontal dilation gradient);
* ``residual_b`` is the equivalent condition expressed through the O'Neill
  tensors, the phi/omega/B/C decompositions and the pullback connection.

Verdicts are compared: a sound equivalence can never yield ``holds`` on one
side and ``fails`` on the other.  Conditions quantified over an empty frame
range are reported as vacuous; equivalences whose content degenerates (the
dilation characterizations need both the anti-invariant part and its
horizontal complement to be nonzero) are vacuous as well.

Side a reads brackets and covariant derivatives of the pass's frames and the
second fundamental form (`submersion._Group`), side b only the adapted-frame
tables (`submersion.AdaptedFrame`), which side a never reads, so their
connection coefficients cannot move both sides together.  A checker contracts
the tables of a group of points at once, point axis leading, and returns one
list per report row, whose entry k is the report of the point `(g, k)`; it
runs once per group (`_group_rows`), and a hypothesis met at some points only
is a mask over them.

Whether J takes part is decided once, at scene load (a machinery-only scene
carries none).  With J both sides are produced; the runner withholds side b
when the Kaehler test fails.  Without J only the definition-level side is
reported, labelled accordingly, and no agreement claim is made.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import Tolerances
from .errors import NumericalOverflowError
from .expr import raise_first
from .geometry import along, brackets
from .submersion import (
    PointContext,
    _flat,
    _Group,
    _mapped,
    _norms as _norms_g,
    _orthonormal_rows,
    _T,
    pairs,
    row_norms,
)

__all__ = [
    "ConditionReport", "CheckerSpec", "CHECKERS", "verdict_of", "check_d2_integrable",
    "check_d1_integrability", "check_horizontal_integrability", "check_homothetic_characterization",
    "check_horizontal_totally_geodesic", "check_vertical_totally_geodesic", "check_d1_totally_geodesic",
    "check_d2_totally_geodesic", "check_product_structures", "check_tension_formula", "check_harmonicity",
    "check_jd2_mu_totally_geodesic", "check_totally_geodesic_characterization", "check_corollaries",
    "check_sff_identities",
]

HOLDS, FAILS, INCONCLUSIVE = "holds", "fails", "inconclusive"
DIRECT_ONLY = "direct test only (no complex structure)"


@dataclass(frozen=True, init=False)
class ConditionReport:
    """The two residuals of a checker row at one point; the verdicts follow from them and `tolerance`.

    Side b withheld (`residual_b` None) reads inconclusive, and the sides
    agree unless one holds and the other fails.  The point is named by
    position: the k-th report of a row belongs to the k-th point of its
    group, and in a `RunReport` to structure row k.
    """

    name: str
    residual_a: float
    residual_b: float | None
    tolerance: float
    vacuous: bool = False
    label: str = ""
    verdict_a: str = field(init=False)
    verdict_b: str = field(init=False)
    agree: bool = field(init=False)

    def __init__(self, name, residual_a, residual_b, tolerance, vacuous=False, label=""):
        va = verdict_of(residual_a, tolerance)
        vb = INCONCLUSIVE if residual_b is None else verdict_of(residual_b, tolerance)
        self.__dict__.update(name=name, residual_a=residual_a, residual_b=residual_b, tolerance=tolerance,  # frozen
                             vacuous=vacuous, label=label, verdict_a=va, verdict_b=vb, agree={va, vb} != {HOLDS, FAILS})


def verdict_of(residual: float, tol: float) -> str:
    if residual < tol:
        return HOLDS
    if residual > 10.0 * tol:
        return FAILS
    return INCONCLUSIVE


def _reports(name, g: _Group, ra, rb, tol, vacuous=False, label="", unmet=None):
    """One report per point of the group from residuals ra[q] and rb[q] (a scalar: at every point).

    `rb` may be None, or a list with None where side b is withheld; `label`
    is one label, or a list of one per point.  Where the mask `unmet` is set
    side b is withheld and labelled with `label`, elsewhere unlabelled.
    """
    n = len(g.points)
    per_point = lambda x: x if isinstance(x, list) else x.tolist() if getattr(x, "ndim", 0) else [float(x)] * n
    rb = [None] * n if rb is None else per_point(rb)
    labels = [label] * n if isinstance(label, str) else label
    if unmet is not None:
        rb = [None if u else b for u, b in zip(unmet.tolist(), rb)]
        labels = [label if u else "" for u in unmet.tolist()]
    return [ConditionReport(name, a, b, tol, vacuous, lab)
            for a, b, lab in zip(per_point(ra), rb, labels)]


def _group_rows(check, group: _Group, tol: Tolerances) -> list[list[ConditionReport]]:
    """The report rows of a checker over a group; `check(group, tol)` runs once per group and tolerances."""
    return group.memo(("checker", check, tol), lambda: check(group, tol))


def _memo_check(check, ctx: PointContext, tol: Tolerances) -> list[ConditionReport]:
    """The reports of a checker at the point of `SmoothMap.context`: entry k of each row of its group."""
    group, k = ctx.group
    return [row[k] for row in _group_rows(check, group, tol)]


def _amax(x) -> np.ndarray:
    """The largest absolute entry per point; 0 where a point has none."""
    return np.abs(x).reshape(len(x), -1).max(axis=1, initial=0.0)


def _swap(x: np.ndarray) -> np.ndarray:
    """x[q, a, b] -> x[q, b, a]."""
    return x.swapaxes(1, 2)


@functools.lru_cache(maxsize=None)
def _upper_index(m: int, strict: bool) -> tuple:
    """Index of the entries [q, a, b] of m x m matrices with a < b (a <= b when not strict); shared."""
    rows, cols = np.triu_indices(m, 1 if strict else 0)
    rows.flags.writeable = cols.flags.writeable = False
    return slice(None), rows, cols


def _upper(x: np.ndarray, strict: bool = True) -> np.ndarray:
    """The entries x[q, a, b] with a < b (a <= b when not strict)."""
    return x[_upper_index(x.shape[1], strict)]


def _stack(g: _Group, *names: str) -> np.ndarray:
    """The rows of the pass's frames named, stacked."""
    return np.concatenate([getattr(g, name).v for name in names], axis=1)


def _bracket_residual(g: _Group, name: str, *against: str) -> np.ndarray:
    """max |g([F_a, F_b], Z_c)| over the pairs a < b of the pass's frame F named and the rows Z of `against`."""
    F = getattr(g, name)
    return g.memo(("bracket", name, against),
                  lambda: _amax(_upper(brackets(F, F)) @ g.G.v @ _T(_stack(g, *against))))


def _geodesic_residual(g: _Group, name: str, *against: str) -> np.ndarray:
    """max |g(nabla_{F_a} F_b, Z_c)| over the rows of the pass's frame F named and of `against`."""
    F = getattr(g, name).v
    return g.memo(("geodesic", name, against),
                  lambda: _amax(_flat(along(F, g.nabla(name))) @ g.G.v @ _T(_stack(g, *against))))


def _off_pushed_mu(g: _Group, W: np.ndarray) -> np.ndarray:
    """g_N-norms of the parts of the target vectors W[q, ..., :] orthogonal to dF(mu)."""
    GN = g.gN.v

    def basis():  # a zero row for a dropped seed leaves the projection as it is
        A = g.adapted
        Q, _, _, finite = _orthonormal_rows(GN, A.push[:, A.mu], Tolerances.pushed_drop)
        raise_first(~finite, lambda q: NumericalOverflowError(
            "numerical overflow in a Gram-Schmidt squared norm"))
        return Q

    Q, W = g.memo("pushed_mu_basis", basis), _flat(W)
    return row_norms(W - (W @ GN @ _T(Q)) @ Q, GN)


def _over_lam2(x: np.ndarray, g: _Group) -> np.ndarray:
    """x[q, ...] / lambda^2 at every point."""
    return x / (g.lam ** 2).reshape((-1,) + (1,) * (x.ndim - 1))


# Side b reads the adapted-frame tables (`g.adapted`) only: vectors are rows
# of E-components, g is the dot product, and a family of fields is the matrix
# of its components, so J d1 is `J[:, d1]` and B X is `H @ B`.


def _on(table: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """E-tables t[q, l, r, :] on stacks of component rows X[q, a], Y[q, b]: out[q, a, b] = t(X_a, Y_b)."""
    return Y[:, None] @ along(X, table)


def _pullback_terms(g: _Group, W: np.ndarray, X: np.ndarray, F: np.ndarray, dF, Y: np.ndarray):
    """g(W[a, b], F_k) - g_N(nabla^F_{X_a} dF(F_k), dF(Y_b)) / lambda^2 at [q, a, k, b] for fields F with
    component derivatives dF (`AdaptedFrame.nabla`)."""
    pulled = along(X, g.adapted.pulled(F, dF)) @ _T(Y)[:, None]
    return (W @ _T(F)[:, None]).swapaxes(2, 3) - _over_lam2(pulled, g)


# ---------------------------------------------------------------------------
# Integrability


def check_d2_integrable(g: _Group, tol: Tolerances):
    """The anti-invariant vertical distribution is integrable unconditionally."""
    if g.dims[1] < 2:
        return [_reports("d2_integrability", g, 0.0, 0.0, tol.theorem, vacuous=True,
                         label="vacuous: fewer than two anti-invariant directions")]
    ra = _bracket_residual(g, "d2", "d1", "horizontal")
    return [_reports("d2_integrability", g, ra, 0.0, tol.theorem)]


def check_d1_integrability(g: _Group, tol: Tolerances):
    """Invariant part integrable iff the antisymmetrized sff of J-twisted pairs pushes into F(mu)."""
    if g.dims[0] < 2:
        return [_reports("d1_integrability", g, 0.0, 0.0, tol.theorem, vacuous=True,
                         label="vacuous: fewer than two invariant directions")]
    ra, A = _bracket_residual(g, "d1", "d2"), g.adapted
    S = _on(A.S, A.I[:, A.d1], A.J[:, A.d1])  # S[q, i, j] = sff(d1_i, J d1_j)
    rb = _amax(_off_pushed_mu(g, _upper(_swap(S) - S)))
    return [_reports("d1_integrability", g, ra, rb, tol.theorem)]


def _horizontal_pair_residual(g: _Group, extra=None) -> np.ndarray:
    """max |g(W, J W_k) - g_N(nabla^F_Y dF(CX) - nabla^F_X dF(CY), dF(J W_k)) / lambda^2| with W = A(Y, BX)
    - A(X, BY) + extra[a, b] over horizontal pairs X = X_a, Y = X_b, a < b, and the anti-invariant frame W_k."""
    A = g.adapted
    JD2 = _T(A.J[:, A.d2])

    def terms():  # without extra, once per group
        A_B = _on(A.A, A.H, A.H @ A.B)
        # dF(C X) lies in dF(mu) and dF(J W_k) in dF(Jd2): their Gram entries vanish
        D = along(A.H, A.pulled(A.H @ A.C))  # D[q, b, a] = nabla^F_{X_b} dF(C X_a)
        return _upper(_swap(A_B) - A_B) @ JD2 - _over_lam2(_upper(_swap(D) - D) @ JD2, g)

    out = g.memo("horizontal pair terms", terms)
    return _amax(out if extra is None else out + _upper(extra) @ JD2)


def check_horizontal_integrability(g: _Group, tol: Tolerances):
    if g.horizontal.v.shape[1] < 2:
        return [_reports("horizontal_integrability", g, 0.0, 0.0, tol.theorem, vacuous=True,
                         label="vacuous: fewer than two horizontal directions")]
    ra = _bracket_residual(g, "horizontal", "vertical")
    if g.J is None:
        return [_reports("horizontal_integrability", g, ra, None, tol.theorem, label=DIRECT_ONLY)]
    A = g.adapted
    H, CH = A.H, A.H @ A.C
    # invariant-part component of the bracket through the A tensor
    A_omB = _on(A.A, H, H @ A.B @ A.om)
    JA_C = _on(A.A, H, CH) @ A.J[:, None]
    w1 = _swap(A_omB) - A_omB - JA_C + _swap(JA_C)
    rb = _amax(_upper(w1)[..., A.d1])
    # anti-invariant component through the pullback connection
    if g.dims[1]:
        grad = A.grad
        dln = CH @ grad[..., None]
        extra = (-dln[:, None] * H[:, :, None] + dln[:, :, None] * H[:, None]
                 + 2.0 * (H @ _T(CH))[..., None] * grad[:, None, None])
        rb = np.maximum(rb, _horizontal_pair_residual(g, extra))
    return [_reports("horizontal_integrability", g, ra, rb, tol.theorem)]


def check_homothetic_characterization(g: _Group, tol: Tolerances):
    """Horizontal homothety against the pullback-connection identity on horizontal pairs."""
    name = "homothety_characterization"
    ra = g.horizontal_dilation
    if g.J is None:
        return [_reports(name, g, ra, None, tol.theorem, label=DIRECT_ONLY)]
    if not g.dims[1] or not g.dims[3]:
        # with either part empty the identity holds identically and carries
        # no information about the dilation
        return [_reports(name, g, ra, 0.0, tol.theorem, vacuous=True,
                         label="vacuous: needs nonzero d2 and mu")]
    unmet = _bracket_residual(g, "horizontal", "vertical") > tol.theorem
    return [_reports(name, g, ra, _horizontal_pair_residual(g), tol.theorem, unmet=unmet,
                     label="hypothesis unmet: horizontal distribution not integrable")]


# ---------------------------------------------------------------------------
# Totally geodesic foliations


def _jd2_terms(g: _Group) -> np.ndarray:
    """g(A(X_a, B X_b), J W_k) - g_N(nabla^F_{X_a} dF(J W_k), dF(C X_b)) / lambda^2 at [q, a, k, b]."""
    A = g.adapted
    return g.memo("jd2 terms", lambda: _pullback_terms(
        g, _on(A.A, A.H, A.H @ A.B), A.H, A.J[:, A.d2], A.dJ[:, :, A.d2], A.H @ A.C))


def check_horizontal_totally_geodesic(g: _Group, tol: Tolerances):
    name = "horizontal_totally_geodesic"
    ra = _geodesic_residual(g, "horizontal", "vertical")
    if g.J is None:
        return [_reports(name, g, ra, None, tol.theorem, label=DIRECT_ONLY)]
    A = g.adapted
    H, BH, CH = A.H, A.H @ A.B, A.H @ A.C
    # B X has no d1 components to differentiate
    rb = _amax((_on(A.A, H, CH) + along(H, A.nabla(BH)))[..., A.d1])
    if g.dims[1]:
        grad, JD2 = A.grad, A.J[:, A.d2]
        vec = -(CH @ grad[..., None])[:, None] * H[:, :, None] + (H @ _T(CH))[..., None] * grad[:, None, None]
        rb = np.maximum(rb, _amax(_jd2_terms(g) + (vec @ _T(JD2)[:, None]).swapaxes(2, 3)))
    return [_reports(name, g, ra, rb, tol.theorem)]


def _vertical_mu_terms(g: _Group, with_gradient: bool) -> np.ndarray:
    """C T(V_j, phi V_i) + A(omega V_i, phi V_j) [+ g(omega V_i, omega V_j) grad ln lambda]
    against mu, minus the pullback derivative of dF(mu) along omega V_i against dF(omega V_j)."""
    A = g.adapted
    V, phiV, omV = A.V, A.V @ A.phi, A.V @ A.om

    def terms():  # without the gradient, once per group
        vec = _swap(_on(A.T, V, phiV)) @ A.C[:, None] + _on(A.A, omV, phiV)
        return _pullback_terms(g, vec, omV, A.I[:, A.mu], None, omV)

    out = g.memo("vertical mu terms", terms)
    return out + ((omV @ _T(omV))[..., None] * A.grad[:, None, None, A.mu]).swapaxes(2, 3) if with_gradient else out


def check_vertical_totally_geodesic(g: _Group, tol: Tolerances):
    name = "vertical_totally_geodesic"
    ra = _geodesic_residual(g, "vertical", "horizontal")
    if g.J is None:
        return [_reports(name, g, ra, None, tol.theorem, label=DIRECT_ONLY)]
    A, V = g.adapted, g.adapted.V
    # phi V lies in d1: no d2 components to differentiate
    rb = _amax((_on(A.T, V, V @ A.om) + along(V, A.nabla(V @ A.phi)))[..., A.d2])
    if g.dims[3]:
        rb = np.maximum(rb, _amax(_vertical_mu_terms(g, with_gradient=True)))
    return [_reports(name, g, ra, rb, tol.theorem)]


def check_d1_totally_geodesic(g: _Group, tol: Tolerances):
    name = "d1_totally_geodesic"
    if not g.dims[0]:
        return [_reports(name, g, 0.0, 0.0, tol.theorem, vacuous=True,
                         label="vacuous: invariant part is zero")]
    ra, A = _geodesic_residual(g, "d1", "d2", "horizontal"), g.adapted
    D1, H = A.I[:, A.d1], A.H
    S = _on(A.S, D1, A.J[:, A.d1])  # S[q, i, j] = sff(d1_i, J d1_j)
    rb = _amax(_off_pushed_mu(g, S))
    lhs = _over_lam2(_mapped(S, H @ A.C @ A.push @ g.gN.v), g)
    rhs = _T(_on(A.T, D1, H @ A.B @ A.om)[..., A.d1])
    return [_reports(name, g, ra, np.maximum(rb, _amax(lhs - rhs)), tol.theorem)]


def check_d2_totally_geodesic(g: _Group, tol: Tolerances):
    name = "d2_totally_geodesic"
    if not g.dims[1]:
        return [_reports(name, g, 0.0, 0.0, tol.theorem, vacuous=True,
                         label="vacuous: anti-invariant part is zero")]
    ra, A = _geodesic_residual(g, "d2", "d1", "horizontal"), g.adapted
    D2, JD2, JCH = A.I[:, A.d2], A.J[:, A.d2], A.H @ A.C @ A.J
    rb = _amax(_off_pushed_mu(g, _on(A.S, D2, A.J[:, A.d1])))
    # -g_N(nabla^F_{J d2_j} dF(J d2_i), dF(J C X)) / lambda^2 at [q, i, j, x]
    dv = along(JD2, A.pulled(JD2, A.dJ[:, :, A.d2]))
    lhs = -_over_lam2(_swap(dv @ _T(JCH)[:, None]), g)
    BT = _on(A.T, D2, A.H @ A.B) @ A.B[:, None]
    rhs = _T(BT[..., A.d2]) + (D2 @ _T(D2))[..., None] * (JCH @ (A.grad @ A.PH)[..., None])[:, None, None, :, 0]
    return [_reports(name, g, ra, np.maximum(rb, _amax(lhs - rhs)), tol.theorem)]


def _combine(name, g: _Group, tol, *rows):
    """The conjunction of report rows, point by point (vacuity is decided per group)."""
    parts = list(zip(*rows))
    rbs = [[p.residual_b for p in at if p.residual_b is not None] for at in parts]
    return _reports(name, g, [max(p.residual_a for p in at) for at in parts],
                    [max(r) if r else None for r in rbs], tol.theorem,
                    vacuous=all(p.vacuous for p in parts[0]),
                    label="conjunction: " + ", ".join(p.name for p in parts[0]))


def check_product_structures(g: _Group, tol: Tolerances):
    """Local product structures: total space (horizontal x fibers) and within fibers."""
    first = lambda check: _group_rows(check, g, tol)[0]
    out = [_combine("product_total_space", g, tol, first(check_horizontal_totally_geodesic),
                    first(check_vertical_totally_geodesic))]
    if g.J is not None:
        out.append(_combine("product_fibers", g, tol, first(check_d1_totally_geodesic),
                            first(check_d2_totally_geodesic)))
    return out


# ---------------------------------------------------------------------------
# Tension, harmonicity, total geodesicity


def check_tension_formula(g: _Group, tol: Tolerances):
    m2, n, _, r2 = g.dims  # (2m, n, n, 2r), validated by the pass
    mean, grad = g.fiber_mean_curvature, g.grad_ln_lambda
    rhs = -float(m2 + n) * _mapped(mean, g.DF.v) + (2.0 - n - r2) * _mapped(grad, g.DF.v)
    res = _norms_g(g.tension - rhs, g.gN.v)
    return [_reports("tension_formula", g, res, res, tol.identity, label="identity")]


def check_harmonicity(g: _Group, tol: Tolerances):
    """Harmonicity against the mean-curvature / dilation decomposition of the tension."""
    _, n, _, r2 = g.dims  # (2m, n, n, 2r), validated by the pass
    A = g.adapted
    # -(2m + n) dF(mean curvature of the fibers) + (2 - n - 2r) dF(grad ln lambda); T's vertical trace
    rhs = (2.0 - n - r2) * A.grad - np.trace(A.T[:, A.vert, A.vert], axis1=1, axis2=2)
    minimal = _norms_g(_mapped(g.fiber_mean_curvature, g.DF.v), g.gN.v) < tol.theorem
    homothetic = g.horizontal_dilation < tol.theorem
    branch = "minimal-fibers-iff-harmonic" if n + r2 == 2 else "paired-implications"
    labels = [f"{branch}; minimal={a}; homothetic={b}"
              for a, b in zip(minimal.tolist(), homothetic.tolist())]
    return [_reports("harmonicity", g, _norms_g(g.tension, g.gN.v), _norms_g(rhs, A.gram),
                     tol.theorem, label=labels)]


def check_jd2_mu_totally_geodesic(g: _Group, tol: Tolerances):
    """Vanishing sff on (J d2) x horizontal pairs iff horizontally homothetic."""
    name = "jd2_mu_totally_geodesic"
    A = g.adapted
    rb = A.horizontal_dilation
    if not g.dims[1]:
        return [_reports(name, g, 0.0, rb, tol.theorem, vacuous=True,
                         label="vacuous: anti-invariant part is zero")]
    JD2 = _mapped(g.d2.v, g.J.v)
    ra = _amax(row_norms(_flat(pairs(g.sff, JD2, _stack(g, "horizontal"))), g.gN.v))
    return [_reports(name, g, ra, rb, tol.theorem)]


def check_totally_geodesic_characterization(g: _Group, tol: Tolerances):
    name = "totally_geodesic_characterization"
    E = _stack(g, "vertical", "horizontal")
    ra = _amax(row_norms(_upper(pairs(g.sff, E, E), strict=False), g.gN.v))
    if g.J is None:
        return [_reports(name, g, ra, None, tol.theorem, label=DIRECT_ONLY)]
    A = g.adapted
    D1, V, JD2 = A.I[:, A.d1], A.V, A.J[:, A.d2]
    # C T(d1_i, J d1_j) + omega(V nabla_{d1_i} J d1_j)
    wa = (_on(A.T, D1, A.J[:, A.d1]) @ A.C[:, None]
          + along(D1, A.nabla(A.J[:, A.d1], A.dJ[:, :, A.d1])) @ A.PV @ A.om[:, None])
    # C(H nabla_{V_i} J d2_j) + omega T(V_i, J d2_j)
    wb = along(V, A.nabla(JD2, A.dJ[:, :, A.d2])) @ A.PH @ A.C[:, None] + _on(A.T, V, JD2) @ A.om[:, None]
    rb = np.maximum(_amax(np.linalg.norm(wa, axis=-1)), _amax(np.linalg.norm(wb, axis=-1)))
    return [_reports(name, g, ra, np.maximum(rb, A.horizontal_dilation), tol.theorem)]


# ---------------------------------------------------------------------------
# Corollaries


def check_corollaries(g: _Group, tol: Tolerances):
    rows = []
    _, n, _, r = g.dims
    anti_holo = g.J is not None and r == 0 and n > 0
    h_norm = g.horizontal_dilation

    # anti-holomorphic case: J(d2) spans the whole horizontal space
    name1, name2 = "antiholomorphic_integrability", "antiholomorphic_horizontal_geodesic"
    if not anti_holo:
        for nm in (name1, name2):
            rows.append(_reports(nm, g, 0.0, None, tol.theorem,
                                 label="skipped: hypothesis unmet (not anti-holomorphic)"))
    else:
        A = g.adapted
        JD2 = A.J[:, A.d2]
        S = _on(A.S, A.V, JD2)  # S[q, k, i] = sff(V_k, J d2_i)
        # M[q, i, j, k] = g_N(dF(J d2_i), S[q, k, j])
        M = _mapped(S, JD2 @ A.push @ g.gN.v).transpose(0, 3, 2, 1)
        ra, rb = _bracket_residual(g, "horizontal", "vertical"), _over_lam2(_amax(_upper(M - _swap(M))), g)
        rows.append(_reports(name1, g, ra, rb, tol.theorem))
        ra2 = _geodesic_residual(g, "horizontal", "vertical")
        rb2 = _over_lam2(_amax(_off_pushed_mu(g, S)), g)
        rows.append(_reports(name2, g, ra2, rb2, tol.theorem))

    # dilation constant characterizations under parallelism hypotheses
    def parallel_reports(name, ra, X, block, what, side_b):
        if not n or not r:
            return _reports(name, g, ra, 0.0, tol.theorem, vacuous=True,
                            label="vacuous: needs nonzero d2 and mu")
        A = g.adapted
        nab = along(X(A), A.nabla(A.I[:, block(A)]))  # the block stays in its span along X
        unmet = _amax(np.linalg.norm(nab - nab * A.I[0, block(A)].sum(0), axis=-1)) > tol.theorem
        return _reports(name, g, ra, side_b(g.adapted), tol.theorem, unmet=unmet,
                        label=f"hypothesis unmet: {what}")

    rows.append(parallel_reports(
        "d2_parallel_homothety", h_norm, lambda A: A.H, lambda A: A.d2, "d2 not parallel along horizontal",
        lambda A: _amax(_jd2_terms(g))))
    ra4 = g.lam * _norms_g(_mapped(g.grad_ln_lambda, g.PMU.v), g.G.v) if r else 0.0
    rows.append(parallel_reports(
        "mu_parallel_dilation", ra4, lambda A: A.V, lambda A: A.mu, "mu not parallel along the fibers",
        lambda A: _amax(_vertical_mu_terms(g, with_gradient=False))))
    return rows


# ---------------------------------------------------------------------------
# Identity diagnostics (run on any conformal scene)


def check_sff_identities(g: _Group, tol: Tolerances):
    """Residuals of the conformal second-fundamental-form identities.

    Horizontal slots: (nabla dF)(X,Y) against the dilation-gradient expression;
    vertical slots: against -dF(T_V W); mixed slots: against -dF(A_X V).
    Each residual is the max g_N-norm gap over the respective frame pairs
    (unordered pairs where both slots range over the same frame).
    """
    G, DF, H, V = g.G.v, g.DF.v, g.horizontal.v, g.vertical.v
    grad = g.grad_ln_lambda
    pushed, dln = _mapped(H, DF), _mapped(grad, H @ G)
    rhs = (dln[:, :, None, None] * pushed[:, None] + dln[:, None, :, None] * pushed[:, :, None]
           - (H @ G @ _T(H))[..., None] * _mapped(grad, DF)[:, None, None])
    gaps = (
        _upper(pairs(g.sff, H, H) - rhs, strict=False),
        _upper(pairs(g.sff, V, V) + _mapped(pairs(g.t, V, V), DF), strict=False),
        pairs(g.sff, H, V) + _mapped(pairs(g.a, H, V), DF),
    )
    residuals = (_amax(row_norms(_flat(x), g.gN.v)) for x in gaps)
    return [_reports(f"sff_identity_{slots}", g, r, r, tol.identity, label="identity")
            for slots, r in zip(("horizontal", "vertical", "mixed"), residuals)]


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class CheckerSpec:
    name: str
    func: Callable  # func(g, tol): one list per report row, one report per point of the group g
    needs_j: bool  # no definition-level side without a complex structure
    kahler_gated: bool  # equivalence side requires a verified Kaehler structure


CHECKERS: dict[str, CheckerSpec] = {spec.name: spec for spec in [
    CheckerSpec("d2_integrability", check_d2_integrable, True, True),
    CheckerSpec("d1_integrability", check_d1_integrability, True, True),
    CheckerSpec("horizontal_integrability", check_horizontal_integrability, False, True),
    CheckerSpec("homothety_characterization", check_homothetic_characterization, False, True),
    CheckerSpec("horizontal_totally_geodesic", check_horizontal_totally_geodesic, False, True),
    CheckerSpec("vertical_totally_geodesic", check_vertical_totally_geodesic, False, True),
    CheckerSpec("d1_totally_geodesic", check_d1_totally_geodesic, True, True),
    CheckerSpec("d2_totally_geodesic", check_d2_totally_geodesic, True, True),
    CheckerSpec("product_structures", check_product_structures, False, True),
    CheckerSpec("tension_formula", check_tension_formula, True, True),
    CheckerSpec("harmonicity", check_harmonicity, True, True),
    CheckerSpec("jd2_mu_totally_geodesic", check_jd2_mu_totally_geodesic, True, True),
    CheckerSpec("totally_geodesic_characterization", check_totally_geodesic_characterization, False, True),
    CheckerSpec("corollaries", check_corollaries, True, True),
    CheckerSpec("sff_identities", check_sff_identities, False, False),
]}
