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

Both sides read the tables of a group of sample points (`submersion._Group`:
the second fundamental form, O'Neill's T and A, the covariant and pullback
derivatives of the frame families), built once per group with the point axis
leading: a checker is a set of slices and batched contractions of them and a
maximum per point; a hypothesis met at some points only is a mask over the
points.  `check_x(g, tol)` returns one list per report row, with one report per
point of the group `g`, and the runner runs each checker once per group
(`_group_rows`); the report of the point `(g, k)` is entry k of each row.

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
    _norms,
    _orthonormal_rows,
    _T,
    bookkeeping,
    pairs,
    row_norms,
)

__all__ = [
    "ConditionReport",
    "CheckerSpec",
    "CHECKERS",
    "verdict_of",
    "check_d2_integrable",
    "check_d1_integrability",
    "check_horizontal_integrability",
    "check_homothetic_characterization",
    "check_horizontal_totally_geodesic",
    "check_vertical_totally_geodesic",
    "check_d1_totally_geodesic",
    "check_d2_totally_geodesic",
    "check_product_structures",
    "check_tension_formula",
    "check_harmonicity",
    "check_jd2_mu_totally_geodesic",
    "check_totally_geodesic_characterization",
    "check_corollaries",
    "check_sff_identities",
]

HOLDS, FAILS, INCONCLUSIVE = "holds", "fails", "inconclusive"
DIRECT_ONLY = "direct test only (no complex structure)"


@dataclass(frozen=True)
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

    def __post_init__(self):
        va = verdict_of(self.residual_a, self.tolerance)
        vb = INCONCLUSIVE if self.residual_b is None else verdict_of(self.residual_b, self.tolerance)
        object.__setattr__(self, "verdict_a", va)
        object.__setattr__(self, "verdict_b", vb)
        object.__setattr__(self, "agree", {va, vb} != {HOLDS, FAILS})


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
    if not isinstance(rb, list):
        rb = [None] * n if rb is None else np.broadcast_to(rb, n).tolist()
    labels = [label] * n if isinstance(label, str) else label
    if unmet is not None:
        rb = [None if u else b for u, b in zip(unmet.tolist(), rb)]
        labels = [label if u else "" for u in unmet.tolist()]
    return [ConditionReport(name, a, b, tol, vacuous, lab)
            for a, b, lab in zip(np.broadcast_to(ra, n).tolist(), rb, labels)]


def _group_rows(check, group: _Group, tol: Tolerances) -> list[list[ConditionReport]]:
    """The report rows of a checker over a group; `check(group, tol)` runs once per group and tolerances."""
    return group.memo(("checker", check, tol), lambda: check(group, tol))


def _memo_check(check, ctx: PointContext, tol: Tolerances) -> list[ConditionReport]:
    """The reports of a checker at the point of `SmoothMap.context`: entry k of each row of its group."""
    group, k = ctx.group
    return [row[k] for row in _group_rows(check, group, tol)]


def _amax(x) -> np.ndarray:
    """The largest absolute entry per point; 0 where a point has none."""
    return np.max(np.abs(x).reshape(len(x), -1), axis=1, initial=0.0)


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
    return np.concatenate([g.family(name).v for name in names], axis=1)


def _bracket_residual(g: _Group, name: str, Z: np.ndarray) -> np.ndarray:
    """max |g([F_a, F_b], Z_c)| over the pairs a < b of a family and the rows of Z."""
    F = g.family(name)
    return _amax(_upper(brackets(F, F)) @ g.Gf @ _T(Z))


def _geodesic_residual(g: _Group, name: str, Z: np.ndarray) -> np.ndarray:
    """max |g(nabla_{F_a} F_b, Z_c)| over the rows of a family and of Z."""
    return _amax(_flat(along(g.family(name).v, g.nabla(name))) @ g.Gf @ _T(Z))


def _off_pushed_mu(g: _Group, W: np.ndarray) -> np.ndarray:
    """g_N-norms of the parts of the target vectors W[q, ..., :] orthogonal to dF(mu)."""
    GN = g.GNf

    def basis():  # a zero row for a dropped seed leaves the projection as it is
        Q, _, _, finite = _orthonormal_rows(GN, _mapped(_stack(g, "mu"), g.DFf), 1e-12)
        raise_first(~finite, lambda q: NumericalOverflowError(
            "numerical overflow in a Gram-Schmidt squared norm"))
        return Q

    Q, W = g.memo("pushed_mu_basis", basis), _flat(W)
    return row_norms(W - (W @ GN @ _T(Q)) @ Q, GN)


def _over_lam2(x: np.ndarray, g: _Group) -> np.ndarray:
    """x[q, ...] / lambda^2 at every point."""
    return x / (g.data.lam ** 2).reshape((-1,) + (1,) * (x.ndim - 1))


def _pullback_terms(g: _Group, W: np.ndarray, X: np.ndarray, name: str, Y: np.ndarray):
    """g(W[a, b], F_k) - g_N(nabla^F_{X_a} dF(F_k), dF(Y_b)) / lambda^2 for the family F named."""
    dval = along(X, g.pullback(name))  # [q, a, k, n]
    pulled = dval @ g.GNf[:, None] @ _T(_mapped(Y, g.DFf))[:, None]  # [q, a, k, b]
    return _mapped(_mapped(W, _T(g.Gf)), _stack(g, name)) - _over_lam2(_T(pulled), g)


# ---------------------------------------------------------------------------
# Integrability


def check_d2_integrable(g: _Group, tol: Tolerances):
    """The anti-invariant vertical distribution is integrable unconditionally."""
    if g.family("d2").v.shape[1] < 2:
        return [_reports("d2_integrability", g, 0.0, 0.0, tol.theorem, vacuous=True,
                         label="vacuous: fewer than two anti-invariant directions")]
    ra = _bracket_residual(g, "d2", _stack(g, "d1", "horizontal"))
    return [_reports("d2_integrability", g, ra, 0.0, tol.theorem)]


def check_d1_integrability(g: _Group, tol: Tolerances):
    """Invariant part integrable iff the antisymmetrized sff of J-twisted pairs pushes into F(mu)."""
    D1 = g.family("d1").v
    if D1.shape[1] < 2:
        return [_reports("d1_integrability", g, 0.0, 0.0, tol.theorem, vacuous=True,
                         label="vacuous: fewer than two invariant directions")]
    ra = _bracket_residual(g, "d1", _stack(g, "d2"))
    S = pairs(g.tensors.sff, D1, _stack(g, "Jd1"))  # S[q, i, j] = sff(d1_i, J d1_j)
    rb = _amax(_off_pushed_mu(g, _upper(_swap(S) - S)))
    return [_reports("d1_integrability", g, ra, rb, tol.theorem)]


def _horizontal_pair_residual(g: _Group, extra=0.0) -> np.ndarray:
    """max |g(W, J W_k) - g_N(nabla^F_Y dF(CX) - nabla^F_X dF(CY), dF(J W_k)) / lambda^2|
    with W = A(Y, BX) - A(X, BY) + extra[a, b] over horizontal pairs X = X_a, Y = X_b,
    a < b, and the anti-invariant frame W_k."""
    H, JD2 = g.family("horizontal").v, _stack(g, "Jd2")
    A_B = pairs(g.tensors.a, H, _stack(g, "BH"))
    D = along(H, g.pullback("CH"))  # D[q, b, a] = nabla^F_{X_b} dF(C X_a)
    W, dmix = _upper(_swap(A_B) - A_B + extra), _upper(_swap(D) - D)
    return _amax(W @ g.Gf @ _T(JD2) - _over_lam2(dmix @ g.GNf @ _T(_mapped(JD2, g.DFf)), g))


def check_horizontal_integrability(g: _Group, tol: Tolerances):
    H = g.family("horizontal").v
    if H.shape[1] < 2:
        return [_reports("horizontal_integrability", g, 0.0, 0.0, tol.theorem, vacuous=True,
                         label="vacuous: fewer than two horizontal directions")]
    ra = _bracket_residual(g, "horizontal", _stack(g, "vertical"))
    if g.Jf is None:
        return [_reports("horizontal_integrability", g, ra, None, tol.theorem, label=DIRECT_ONLY)]
    G, A = g.Gf, g.tensors.a
    BH, CH = _stack(g, "BH"), _stack(g, "CH")
    # invariant-part component of the bracket through the A tensor
    A_omB = pairs(A, H, _mapped(BH, g.omega))
    JA_C = _mapped(pairs(A, H, CH), g.Jf)
    w1 = _swap(A_omB) - A_omB - JA_C + _swap(JA_C)
    rb = _amax(_upper(w1) @ G @ _T(_stack(g, "d1")))
    # anti-invariant component through the pullback connection
    if g.family("d2").v.shape[1]:
        grad = g.grad_ln_lambda.vector
        dln = _mapped(grad, CH @ G)
        extra = (-dln[:, None, :, None] * H[:, :, None] + dln[:, :, None, None] * H[:, None]
                 + 2.0 * (H @ G @ _T(CH))[..., None] * grad[:, None, None])
        rb = np.maximum(rb, _horizontal_pair_residual(g, extra))
    return [_reports("horizontal_integrability", g, ra, rb, tol.theorem)]


def check_homothetic_characterization(g: _Group, tol: Tolerances):
    """Horizontal homothety against the pullback-connection identity on horizontal pairs."""
    name = "homothety_characterization"
    ra = g.grad_ln_lambda.horizontal_norm
    if g.Jf is None:
        return [_reports(name, g, ra, None, tol.theorem, label=DIRECT_ONLY)]
    if not g.family("d2").v.shape[1] or not g.family("mu").v.shape[1]:
        # with either part empty the identity holds identically and carries
        # no information about the dilation
        return [_reports(name, g, ra, 0.0, tol.theorem, vacuous=True,
                         label="vacuous: needs nonzero d2 and mu")]
    unmet = _bracket_residual(g, "horizontal", _stack(g, "vertical")) > tol.theorem
    return [_reports(name, g, ra, _horizontal_pair_residual(g), tol.theorem, unmet=unmet,
                     label="hypothesis unmet: horizontal distribution not integrable")]


# ---------------------------------------------------------------------------
# Totally geodesic foliations


def check_horizontal_totally_geodesic(g: _Group, tol: Tolerances):
    name = "horizontal_totally_geodesic"
    ra = _geodesic_residual(g, "horizontal", _stack(g, "vertical"))
    if g.Jf is None:
        return [_reports(name, g, ra, None, tol.theorem, label=DIRECT_ONLY)]
    G, A = g.Gf, g.tensors.a
    H, BH, CH = _stack(g, "horizontal"), _stack(g, "BH"), _stack(g, "CH")
    w1 = pairs(A, H, CH) + _mapped(along(H, g.nabla("BH")), g.PVf)
    rb = _amax(_flat(w1) @ G @ _T(_stack(g, "d1")))
    if g.family("d2").v.shape[1]:
        grad = g.grad_ln_lambda.vector
        vec = (pairs(A, H, BH) - _mapped(grad, CH @ G)[:, None, :, None] * H[:, :, None]
               + (H @ G @ _T(CH))[..., None] * grad[:, None, None])
        rb = np.maximum(rb, _amax(_pullback_terms(g, vec, H, "Jd2", CH)))
    return [_reports(name, g, ra, rb, tol.theorem)]


def _vertical_mu_terms(g: _Group, with_gradient: bool) -> np.ndarray:
    """C T(V_j, phi V_i) + A(omega V_i, phi V_j) [+ g(omega V_i, omega V_j) grad ln lambda]
    against mu, minus the pullback derivative of dF(mu) along omega V_i against dF(omega V_j)."""
    tt, G = g.tensors, g.Gf
    V, phiV = _stack(g, "vertical"), _stack(g, "phiV")
    omV = _mapped(V, g.omega)
    vec = _mapped(_swap(pairs(tt.t, V, phiV)), g.C) + pairs(tt.a, omV, phiV)
    if with_gradient:
        vec = vec + (omV @ G @ _T(omV))[..., None] * g.grad_ln_lambda.vector[:, None, None]
    return _pullback_terms(g, vec, omV, "mu", omV)


def check_vertical_totally_geodesic(g: _Group, tol: Tolerances):
    name = "vertical_totally_geodesic"
    ra = _geodesic_residual(g, "vertical", _stack(g, "horizontal"))
    if g.Jf is None:
        return [_reports(name, g, ra, None, tol.theorem, label=DIRECT_ONLY)]
    V = _stack(g, "vertical")
    w1 = pairs(g.tensors.t, V, _mapped(V, g.omega)) + _mapped(along(V, g.nabla("phiV")), g.PVf)
    rb = _amax(_flat(w1) @ g.Gf @ _T(_stack(g, "d2")))
    if g.family("mu").v.shape[1]:
        rb = np.maximum(rb, _amax(_vertical_mu_terms(g, with_gradient=True)))
    return [_reports(name, g, ra, rb, tol.theorem)]


def check_d1_totally_geodesic(g: _Group, tol: Tolerances):
    name = "d1_totally_geodesic"
    D1 = g.family("d1").v
    if not D1.shape[1]:
        return [_reports(name, g, 0.0, 0.0, tol.theorem, vacuous=True,
                         label="vacuous: invariant part is zero")]
    ra = _geodesic_residual(g, "d1", _stack(g, "d2", "horizontal"))
    S = pairs(g.tensors.sff, D1, _stack(g, "Jd1"))  # S[q, i, j] = sff(d1_i, J d1_j)
    rb = _amax(_off_pushed_mu(g, S))
    omBH = _mapped(_stack(g, "BH"), g.omega)
    lhs = _over_lam2(_mapped(S, _mapped(_stack(g, "CH"), g.DFf) @ g.GNf), g)
    rhs = _T(_mapped(pairs(g.tensors.t, D1, omBH), D1 @ g.Gf))
    return [_reports(name, g, ra, np.maximum(rb, _amax(lhs - rhs)), tol.theorem)]


def check_d2_totally_geodesic(g: _Group, tol: Tolerances):
    name = "d2_totally_geodesic"
    D2 = g.family("d2").v
    if not D2.shape[1]:
        return [_reports(name, g, 0.0, 0.0, tol.theorem, vacuous=True,
                         label="vacuous: anti-invariant part is zero")]
    G = g.Gf
    ra = _geodesic_residual(g, "d2", _stack(g, "d1", "horizontal"))
    rb = _amax(_off_pushed_mu(g, pairs(g.tensors.sff, D2, _stack(g, "Jd1"))))
    JCH = _mapped(_stack(g, "CH"), g.Jf)
    # -g_N(nabla^F_{J d2_j} dF(J d2_i), dF(J C X)) / lambda^2 at [q, i, j, x]
    dv = along(_stack(g, "Jd2"), g.pullback("Jd2"))
    lhs = -_over_lam2(_swap(_mapped(dv, _mapped(JCH, g.DFf) @ _T(g.GNf))), g)
    BT = _mapped(pairs(g.tensors.t, D2, _stack(g, "BH")), g.B)
    h_part = g.grad_ln_lambda.horizontal_part
    rhs = _T(_mapped(BT, D2 @ G)) + (D2 @ G @ _T(D2))[..., None] * _mapped(h_part, JCH @ G)[:, None, None]
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
    if g.Jf is not None:
        out.append(_combine("product_fibers", g, tol, first(check_d1_totally_geodesic),
                            first(check_d2_totally_geodesic)))
    return out


# ---------------------------------------------------------------------------
# Tension, harmonicity, total geodesicity


def _tension_formula_rhs(g: _Group) -> np.ndarray:
    _, n_target, dim = g.DFf.shape
    m, n, r = bookkeeping(g.dims, dim, n_target)
    mean, grad = g.tensors.fiber_mean_curvature, g.grad_ln_lambda.vector
    return -float(2 * m + n) * _mapped(mean, g.DFf) + (2.0 - n - 2.0 * r) * _mapped(grad, g.DFf)


def check_tension_formula(g: _Group, tol: Tolerances):
    res = _norms(g.tensors.tension - _tension_formula_rhs(g), g.GNf)
    return [_reports("tension_formula", g, res, res, tol.identity, label="identity")]


def check_harmonicity(g: _Group, tol: Tolerances):
    """Harmonicity against the mean-curvature / dilation decomposition of the tension."""
    rb = _norms(_tension_formula_rhs(g), g.GNf)  # validates n + 2r = dim of the target
    minimal = _norms(_mapped(g.tensors.fiber_mean_curvature, g.DFf), g.GNf) < tol.theorem
    homothetic = g.grad_ln_lambda.horizontal_norm < tol.theorem
    branch = "minimal-fibers-iff-harmonic" if g.DFf.shape[1] == 2 else "paired-implications"
    labels = [f"{branch}; minimal={a}; homothetic={b}"
              for a, b in zip(minimal.tolist(), homothetic.tolist())]
    return [_reports("harmonicity", g, _norms(g.tensors.tension, g.GNf), rb, tol.theorem,
                     label=labels)]


def check_jd2_mu_totally_geodesic(g: _Group, tol: Tolerances):
    """Vanishing sff on (J d2) x horizontal pairs iff horizontally homothetic."""
    name = "jd2_mu_totally_geodesic"
    rb = g.grad_ln_lambda.horizontal_norm
    JD2 = _stack(g, "Jd2")
    if not JD2.shape[1]:
        return [_reports(name, g, 0.0, rb, tol.theorem, vacuous=True,
                         label="vacuous: anti-invariant part is zero")]
    ra = _amax(row_norms(_flat(pairs(g.tensors.sff, JD2, _stack(g, "horizontal"))), g.GNf))
    return [_reports(name, g, ra, rb, tol.theorem)]


def check_totally_geodesic_characterization(g: _Group, tol: Tolerances):
    name = "totally_geodesic_characterization"
    tt, G = g.tensors, g.Gf
    E = _stack(g, "vertical", "horizontal")
    ra = _amax(row_norms(_upper(pairs(tt.sff, E, E), strict=False), g.GNf))
    if g.Jf is None:
        return [_reports(name, g, ra, None, tol.theorem, label=DIRECT_ONLY)]
    C, omega = g.C, g.omega
    D1, V, JD2 = _stack(g, "d1"), _stack(g, "vertical"), _stack(g, "Jd2")
    # C T(d1_i, J d1_j) + omega(V nabla_{d1_i} J d1_j)
    wa = (_mapped(pairs(tt.t, D1, _stack(g, "Jd1")), C)
          + _mapped(_mapped(along(D1, g.nabla("Jd1")), g.PVf), omega))
    # C(H nabla_{V_i} J d2_j) + omega T(V_i, J d2_j)
    wb = _mapped(_mapped(along(V, g.nabla("Jd2")), g.PHf), C) + _mapped(pairs(tt.t, V, JD2), omega)
    rb = np.maximum(np.maximum(_amax(row_norms(_flat(wa), G)), _amax(row_norms(_flat(wb), G))),
                    g.grad_ln_lambda.horizontal_norm)
    return [_reports(name, g, ra, rb, tol.theorem)]


# ---------------------------------------------------------------------------
# Corollaries


def check_corollaries(g: _Group, tol: Tolerances):
    rows = []
    D2, MU, V, H = (_stack(g, n) for n in ("d2", "mu", "vertical", "horizontal"))
    anti_holo = g.Jf is not None and MU.shape[1] == 0 and D2.shape[1] > 0
    h_norm = g.grad_ln_lambda.horizontal_norm

    # anti-holomorphic case: J(d2) spans the whole horizontal space
    name1, name2 = "antiholomorphic_integrability", "antiholomorphic_horizontal_geodesic"
    if not anti_holo:
        for nm in (name1, name2):
            rows.append(_reports(nm, g, 0.0, None, tol.theorem,
                                 label="skipped: hypothesis unmet (not anti-holomorphic)"))
    else:
        JD2 = _stack(g, "Jd2")
        S = pairs(g.tensors.sff, V, JD2)  # S[q, k, i] = sff(V_k, J d2_i)
        # M[q, i, j, k] = g_N(dF(J d2_i), S[q, k, j])
        M = _mapped(S, _mapped(JD2, g.DFf) @ g.GNf).transpose(0, 3, 2, 1)
        ra, rb = _bracket_residual(g, "horizontal", V), _over_lam2(_amax(_upper(M - _swap(M))), g)
        rows.append(_reports(name1, g, ra, rb, tol.theorem))
        ra2 = _geodesic_residual(g, "horizontal", V)
        rb2 = _over_lam2(_amax(_off_pushed_mu(g, S)), g)
        rows.append(_reports(name2, g, ra2, rb2, tol.theorem))

    # dilation constant characterizations under parallelism hypotheses
    def parallel_reports(name, ra, X, family, proj, what, side_b):
        if not D2.shape[1] or not MU.shape[1]:
            return _reports(name, g, ra, 0.0, tol.theorem, vacuous=True,
                            label="vacuous: needs nonzero d2 and mu")
        nab = along(X, g.nabla(family))  # the family stays in its span along X
        unmet = _amax(row_norms(_flat(nab - _mapped(nab, proj)), g.Gf)) > tol.theorem
        return _reports(name, g, ra, side_b(), tol.theorem, unmet=unmet, label=f"hypothesis unmet: {what}")

    rows.append(parallel_reports(
        "d2_parallel_homothety", h_norm, H, "d2", g.PD2f, "d2 not parallel along horizontal",
        lambda: _amax(_pullback_terms(g, pairs(g.tensors.a, H, _stack(g, "BH")), H,
                                      "Jd2", _stack(g, "CH")))))
    ra4 = g.data.lam * _norms(_mapped(g.grad_ln_lambda.vector, g.PMUf), g.Gf) if MU.shape[1] else 0.0
    rows.append(parallel_reports(
        "mu_parallel_dilation", ra4, V, "mu", g.PMUf, "mu not parallel along the fibers",
        lambda: _amax(_vertical_mu_terms(g, with_gradient=False))))
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
    tt, G, DF = g.tensors, g.Gf, g.DFf
    H, V = g.family("horizontal").v, g.family("vertical").v
    grad = g.grad_ln_lambda.vector
    pushed, dln = _mapped(H, DF), _mapped(grad, H @ G)
    rhs = (dln[:, :, None, None] * pushed[:, None] + dln[:, None, :, None] * pushed[:, :, None]
           - (H @ G @ _T(H))[..., None] * _mapped(grad, DF)[:, None, None])
    gaps = (
        _upper(pairs(tt.sff, H, H) - rhs, strict=False),
        _upper(pairs(tt.sff, V, V) + _mapped(pairs(tt.t, V, V), DF), strict=False),
        pairs(tt.sff, H, V) + _mapped(pairs(tt.a, H, V), DF),
    )
    rh, rv, rm = (_amax(row_norms(_flat(x), g.GNf)) for x in gaps)
    return [
        _reports("sff_identity_horizontal", g, rh, rh, tol.identity, label="identity"),
        _reports("sff_identity_vertical", g, rv, rv, tol.identity, label="identity"),
        _reports("sff_identity_mixed", g, rm, rm, tol.identity, label="identity"),
    ]


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class CheckerSpec:
    name: str
    func: Callable  # func(g, tol): one list per report row, one report per point of the group g
    needs_j: bool  # no definition-level side without a complex structure
    kahler_gated: bool  # equivalence side requires a verified Kaehler structure


CHECKERS: dict[str, CheckerSpec] = {
    spec.name: spec
    for spec in [
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
        CheckerSpec(
            "totally_geodesic_characterization",
            check_totally_geodesic_characterization,
            False,
            True,
        ),
        CheckerSpec("corollaries", check_corollaries, True, True),
        CheckerSpec("sff_identities", check_sff_identities, False, False),
    ]
}
