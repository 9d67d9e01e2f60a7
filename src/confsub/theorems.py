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

Both sides read the per-point tables of `PointContext` (the second
fundamental form, O'Neill's T and A, the covariant and pullback derivatives of
the frame families), built once on first use: a checker is a set of slices and
contractions of them and a maximum over the resulting array.

Whether J takes part is decided once, at scene load (a machinery-only scene
carries none).  With J both sides are produced; the runner withholds side b
when the Kaehler test fails.  Without J only the definition-level side is
reported, labelled accordingly, and no agreement claim is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import Tolerances
from .geometry import brackets
from .jets import ArrayJet
from .submersion import (
    PointContext,
    _gram_schmidt,
    along,
    bookkeeping,
    on_pairs,
    row_norms,
    sff_identity_residuals,
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
    name: str
    point: tuple[float, ...]
    residual_a: float
    residual_b: float | None
    verdict_a: str
    verdict_b: str
    agree: bool
    tolerance: float
    inconclusive_band: tuple[float, float]
    vacuous: bool = False
    label: str = ""

    @property
    def effective_agree(self) -> bool:
        """Agreement for gating purposes; vacuous reports carry no claim."""
        return self.agree or self.vacuous


def verdict_of(residual: float, tol: float) -> str:
    if residual < tol:
        return HOLDS
    if residual > 10.0 * tol:
        return FAILS
    return INCONCLUSIVE


def _report(name, ctx, ra, rb, tol, vacuous=False, label="", identity=False):
    va = verdict_of(ra, tol)
    vb = INCONCLUSIVE if rb is None else verdict_of(rb, tol)
    agree = not ((va == HOLDS and vb == FAILS) or (va == FAILS and vb == HOLDS))
    if identity and not label:
        label = "identity"
    return ConditionReport(
        name=name,
        point=tuple(float(x) for x in ctx.p),
        residual_a=float(ra),
        residual_b=None if rb is None else float(rb),
        verdict_a=va,
        verdict_b=vb,
        agree=agree,
        tolerance=tol,
        inconclusive_band=(tol, 10.0 * tol),
        vacuous=vacuous,
        label=label,
    )


def _amax(x) -> float:
    return float(np.max(np.abs(x), initial=0.0))


def _swap(x: np.ndarray) -> np.ndarray:
    """x[a, b] -> x[b, a] on the two leading axes."""
    return x.swapaxes(0, 1)


def _upper(x: np.ndarray, strict: bool = True) -> np.ndarray:
    """The entries x[a, b] with a < b (a <= b when not strict)."""
    return x[np.triu_indices(len(x), 1 if strict else 0)]


def _rows(ctx: PointContext, *names: str) -> np.ndarray:
    return np.vstack([ctx.family(name).v for name in names])


def _bracket_residual(ctx: PointContext, name: str, Z: np.ndarray) -> float:
    """max |g([F_a, F_b], Z_c)| over the pairs a < b of a family and the rows of Z."""
    F = ctx.family(name)
    return _amax(_upper(brackets(F, F)) @ ctx.Gf @ Z.T)


def _geodesic_residual(ctx: PointContext, name: str, Z: np.ndarray) -> float:
    """max |g(nabla_{F_a} F_b, Z_c)| over the rows of a family and of Z."""
    return _amax(along(ctx.family(name).v, ctx.nabla(name)) @ ctx.Gf @ Z.T)


def _off_pushed_mu(ctx: PointContext, W: np.ndarray) -> np.ndarray:
    """g_N-norms of the parts of the target vectors W[..., :] orthogonal to dF(mu)."""
    GN = ctx.GNf
    Q = ctx._get("pushed_mu_basis", lambda: _gram_schmidt(*(
        ArrayJet.constant(x[None], 1, batched=True) for x in (GN, _rows(ctx, "mu") @ ctx.DFf.T)
    ), 1e-12).v[0])
    return row_norms(W - (W @ GN @ Q.T) @ Q, GN)


def _pullback_terms(ctx: PointContext, W: np.ndarray, X: np.ndarray, name: str, Y: np.ndarray):
    """g(W[a, b], F_k) - g_N(nabla^F_{X_a} dF(F_k), dF(Y_b)) / lambda^2 for the family F named."""
    F = ctx.family(name).v
    dval = along(X, ctx.pullback(name))  # [a, k]
    return W @ ctx.Gf @ F.T - np.einsum(
        "akn,nm,bm->abk", dval, ctx.GNf, Y @ ctx.DFf.T) / ctx.split.lam ** 2


# ---------------------------------------------------------------------------
# Integrability


def check_d2_integrable(ctx: PointContext, tol: Tolerances):
    """The anti-invariant vertical distribution is integrable unconditionally."""
    if len(ctx.family("d2").v) < 2:
        return [_report("d2_integrability", ctx, 0.0, 0.0, tol.theorem, vacuous=True,
                        label="vacuous: fewer than two anti-invariant directions")]
    ra = _bracket_residual(ctx, "d2", _rows(ctx, "d1", "horizontal"))
    return [_report("d2_integrability", ctx, ra, 0.0, tol.theorem)]


def check_d1_integrability(ctx: PointContext, tol: Tolerances):
    """Invariant part integrable iff the antisymmetrized sff of J-twisted pairs pushes into F(mu)."""
    D1 = ctx.family("d1").v
    if len(D1) < 2:
        return [_report("d1_integrability", ctx, 0.0, 0.0, tol.theorem, vacuous=True,
                        label="vacuous: fewer than two invariant directions")]
    ra = _bracket_residual(ctx, "d1", _rows(ctx, "d2"))
    S = on_pairs(ctx.tensors.sff, D1, _rows(ctx, "Jd1"))  # S[i, j] = sff(d1_i, J d1_j)
    rb = _amax(_off_pushed_mu(ctx, _upper(_swap(S) - S)))
    return [_report("d1_integrability", ctx, ra, rb, tol.theorem)]


def _horizontal_pair_residual(ctx: PointContext, extra=0.0) -> float:
    """max |g(W, J W_k) - g_N(nabla^F_Y dF(CX) - nabla^F_X dF(CY), dF(J W_k)) / lambda^2|
    with W = A(Y, BX) - A(X, BY) + extra[a, b] over horizontal pairs X = X_a, Y = X_b,
    a < b, and the anti-invariant frame W_k."""
    H, JD2 = ctx.family("horizontal").v, _rows(ctx, "Jd2")
    A_B = on_pairs(ctx.tensors.a, H, _rows(ctx, "BH"))
    D = along(H, ctx.pullback("CH"))  # D[b, a] = nabla^F_{X_b} dF(C X_a)
    W, dmix = _upper(_swap(A_B) - A_B + extra), _upper(_swap(D) - D)
    return _amax(W @ ctx.Gf @ JD2.T
                 - dmix @ ctx.GNf @ (JD2 @ ctx.DFf.T).T / ctx.split.lam ** 2)


def check_horizontal_integrability(ctx: PointContext, tol: Tolerances):
    H = ctx.family("horizontal").v
    if len(H) < 2:
        return [_report("horizontal_integrability", ctx, 0.0, 0.0, tol.theorem, vacuous=True,
                        label="vacuous: fewer than two horizontal directions")]
    ra = _bracket_residual(ctx, "horizontal", _rows(ctx, "vertical"))
    if ctx.Jf is None:
        return [_report("horizontal_integrability", ctx, ra, None, tol.theorem, label=DIRECT_ONLY)]
    G, A, J = ctx.Gf, ctx.tensors.a, ctx.Jf
    BH, CH = _rows(ctx, "BH"), _rows(ctx, "CH")
    # invariant-part component of the bracket through the A tensor
    A_omB = on_pairs(A, H, BH @ ctx.omega.T)
    JA_C = on_pairs(A, H, CH) @ J.T
    w1 = _swap(A_omB) - A_omB - JA_C + _swap(JA_C)
    rb = _amax(_upper(w1) @ G @ _rows(ctx, "d1").T)
    # anti-invariant component through the pullback connection
    if len(ctx.family("d2").v):
        grad = ctx.grad_ln_lambda.vector
        dln = CH @ G @ grad
        extra = (-dln[None, :, None] * H[:, None] + dln[:, None, None] * H[None]
                 + 2.0 * (H @ G @ CH.T)[:, :, None] * grad)
        rb = max(rb, _horizontal_pair_residual(ctx, extra))
    return [_report("horizontal_integrability", ctx, ra, rb, tol.theorem)]


def check_homothetic_characterization(ctx: PointContext, tol: Tolerances):
    """Horizontal homothety against the pullback-connection identity on horizontal pairs."""
    name = "homothety_characterization"
    ra = ctx.grad_ln_lambda.horizontal_norm
    if ctx.Jf is None:
        return [_report(name, ctx, ra, None, tol.theorem, label=DIRECT_ONLY)]
    if not len(ctx.family("d2").v) or not len(ctx.family("mu").v):
        # with either part empty the identity holds identically and carries
        # no information about the dilation
        return [_report(name, ctx, ra, 0.0, tol.theorem, vacuous=True,
                        label="vacuous: needs nonzero d2 and mu")]
    hyp = _bracket_residual(ctx, "horizontal", _rows(ctx, "vertical"))
    if hyp > tol.theorem:
        return [_report(name, ctx, ra, None, tol.theorem,
                        label="hypothesis unmet: horizontal distribution not integrable")]
    return [_report(name, ctx, ra, _horizontal_pair_residual(ctx), tol.theorem)]


# ---------------------------------------------------------------------------
# Totally geodesic foliations


def check_horizontal_totally_geodesic(ctx: PointContext, tol: Tolerances):
    name = "horizontal_totally_geodesic"
    ra = _geodesic_residual(ctx, "horizontal", _rows(ctx, "vertical"))
    if ctx.Jf is None:
        return [_report(name, ctx, ra, None, tol.theorem, label=DIRECT_ONLY)]
    G, A = ctx.Gf, ctx.tensors.a
    H, BH, CH = _rows(ctx, "horizontal"), _rows(ctx, "BH"), _rows(ctx, "CH")
    w1 = on_pairs(A, H, CH) + along(H, ctx.nabla("BH")) @ ctx.PVf.T
    rb = _amax(w1 @ G @ _rows(ctx, "d1").T)
    if len(ctx.family("d2").v):
        grad = ctx.grad_ln_lambda.vector
        vec = (on_pairs(A, H, BH) - (CH @ G @ grad)[None, :, None] * H[:, None]
               + (H @ G @ CH.T)[:, :, None] * grad)
        rb = max(rb, _amax(_pullback_terms(ctx, vec, H, "Jd2", CH)))
    return [_report(name, ctx, ra, rb, tol.theorem)]


def _vertical_mu_terms(ctx: PointContext, with_gradient: bool) -> np.ndarray:
    """C T(V_j, phi V_i) + A(omega V_i, phi V_j) [+ g(omega V_i, omega V_j) grad ln lambda]
    against mu, minus the pullback derivative of dF(mu) along omega V_i against dF(omega V_j)."""
    tt, G = ctx.tensors, ctx.Gf
    V, phiV = _rows(ctx, "vertical"), _rows(ctx, "phiV")
    omV = V @ ctx.omega.T
    vec = _swap(on_pairs(tt.t, V, phiV)) @ ctx.C.T + on_pairs(tt.a, omV, phiV)
    if with_gradient:
        vec = vec + (omV @ G @ omV.T)[:, :, None] * ctx.grad_ln_lambda.vector
    return _pullback_terms(ctx, vec, omV, "mu", omV)


def check_vertical_totally_geodesic(ctx: PointContext, tol: Tolerances):
    name = "vertical_totally_geodesic"
    ra = _geodesic_residual(ctx, "vertical", _rows(ctx, "horizontal"))
    if ctx.Jf is None:
        return [_report(name, ctx, ra, None, tol.theorem, label=DIRECT_ONLY)]
    V = _rows(ctx, "vertical")
    w1 = (on_pairs(ctx.tensors.t, V, V @ ctx.omega.T)
          + along(V, ctx.nabla("phiV")) @ ctx.PVf.T)
    rb = _amax(w1 @ ctx.Gf @ _rows(ctx, "d2").T)
    if len(ctx.family("mu").v):
        rb = max(rb, _amax(_vertical_mu_terms(ctx, with_gradient=True)))
    return [_report(name, ctx, ra, rb, tol.theorem)]


def check_d1_totally_geodesic(ctx: PointContext, tol: Tolerances):
    name = "d1_totally_geodesic"
    D1 = ctx.family("d1").v
    if not len(D1):
        return [_report(name, ctx, 0.0, 0.0, tol.theorem, vacuous=True,
                        label="vacuous: invariant part is zero")]
    ra = _geodesic_residual(ctx, "d1", _rows(ctx, "d2", "horizontal"))
    S = on_pairs(ctx.tensors.sff, D1, _rows(ctx, "Jd1"))  # S[i, j] = sff(d1_i, J d1_j)
    rb = _amax(_off_pushed_mu(ctx, S))
    omBH = _rows(ctx, "BH") @ ctx.omega.T
    lhs = np.einsum("xn,nm,ijm->ijx", _rows(ctx, "CH") @ ctx.DFf.T, ctx.GNf, S) / ctx.split.lam ** 2
    rhs = np.einsum("jk,kl,ixl->ijx", D1, ctx.Gf, on_pairs(ctx.tensors.t, D1, omBH))
    return [_report(name, ctx, ra, max(rb, _amax(lhs - rhs)), tol.theorem)]


def check_d2_totally_geodesic(ctx: PointContext, tol: Tolerances):
    name = "d2_totally_geodesic"
    D2 = ctx.family("d2").v
    if not len(D2):
        return [_report(name, ctx, 0.0, 0.0, tol.theorem, vacuous=True,
                        label="vacuous: anti-invariant part is zero")]
    G = ctx.Gf
    ra = _geodesic_residual(ctx, "d2", _rows(ctx, "d1", "horizontal"))
    rb = _amax(_off_pushed_mu(ctx, on_pairs(ctx.tensors.sff, D2, _rows(ctx, "Jd1"))))
    JCH = _rows(ctx, "CH") @ ctx.Jf.T
    # -g_N(nabla^F_{J d2_j} dF(J d2_i), dF(J C X)) / lambda^2 at [i, j, x]
    dv = along(_rows(ctx, "Jd2"), ctx.pullback("Jd2"))
    lhs = -np.einsum("jin,nm,xm->ijx", dv, ctx.GNf, JCH @ ctx.DFf.T) / ctx.split.lam ** 2
    BT = on_pairs(ctx.tensors.t, D2, _rows(ctx, "BH")) @ ctx.B.T
    rhs = (np.einsum("jk,kl,ixl->ijx", D2, G, BT)
           + (D2 @ G @ D2.T)[:, :, None] * (JCH @ G @ ctx.grad_ln_lambda.horizontal_part))
    return [_report(name, ctx, ra, max(rb, _amax(lhs - rhs)), tol.theorem)]


def _combine(name, ctx, tol, parts):
    ra = max(p.residual_a for p in parts)
    rbs = [p.residual_b for p in parts if p.residual_b is not None]
    rb = max(rbs) if rbs else None
    vac = all(p.vacuous for p in parts)
    label = "conjunction: " + ", ".join(p.name for p in parts)
    return _report(name, ctx, ra, rb, tol.theorem, vacuous=vac, label=label)


def _memo_check(func, ctx: PointContext, tol: Tolerances):
    return ctx._get(("checker", func.__name__, tol), lambda: func(ctx, tol))


def check_product_structures(ctx: PointContext, tol: Tolerances):
    """Local product structures: total space (horizontal x fibers) and within fibers."""
    teo_h = _memo_check(check_horizontal_totally_geodesic, ctx, tol)[0]
    teo_v = _memo_check(check_vertical_totally_geodesic, ctx, tol)[0]
    out = [_combine("product_total_space", ctx, tol, [teo_h, teo_v])]
    if ctx.Jf is not None:
        teo_1 = _memo_check(check_d1_totally_geodesic, ctx, tol)[0]
        teo_2 = _memo_check(check_d2_totally_geodesic, ctx, tol)[0]
        out.append(_combine("product_fibers", ctx, tol, [teo_1, teo_2]))
    return out


# ---------------------------------------------------------------------------
# Tension, harmonicity, total geodesicity


def _tension_formula_rhs(ctx: PointContext) -> np.ndarray:
    m, n, r = bookkeeping(ctx.dims, ctx.fmap.source.dim, ctx.fmap.target.dim)
    mean, grad = ctx.tensors.fiber_mean_curvature, ctx.grad_ln_lambda.vector
    return -float(2 * m + n) * ctx.push(mean) + (2.0 - n - 2.0 * r) * ctx.push(grad)


def check_tension_formula(ctx: PointContext, tol: Tolerances):
    res = ctx.gn_norm(ctx.tensors.tension - _tension_formula_rhs(ctx))
    return [_report("tension_formula", ctx, res, res, tol.identity, identity=True)]


def check_harmonicity(ctx: PointContext, tol: Tolerances):
    """Harmonicity against the mean-curvature / dilation decomposition of the tension."""
    rb = ctx.gn_norm(_tension_formula_rhs(ctx))  # validates n + 2r = dim of the target
    minimal = ctx.gn_norm(ctx.push(ctx.tensors.fiber_mean_curvature)) < tol.theorem
    homothetic = ctx.grad_ln_lambda.horizontal_norm < tol.theorem
    branch = "minimal-fibers-iff-harmonic" if ctx.fmap.target.dim == 2 else "paired-implications"
    label = f"{branch}; minimal={minimal}; homothetic={homothetic}"
    return [_report("harmonicity", ctx, ctx.gn_norm(ctx.tensors.tension), rb, tol.theorem,
                    label=label)]


def check_jd2_mu_totally_geodesic(ctx: PointContext, tol: Tolerances):
    """Vanishing sff on (J d2) x horizontal pairs iff horizontally homothetic."""
    name = "jd2_mu_totally_geodesic"
    rb = ctx.grad_ln_lambda.horizontal_norm
    JD2 = _rows(ctx, "Jd2")
    if not len(JD2):
        return [_report(name, ctx, 0.0, rb, tol.theorem, vacuous=True,
                        label="vacuous: anti-invariant part is zero")]
    ra = _amax(row_norms(on_pairs(ctx.tensors.sff, JD2, _rows(ctx, "horizontal")), ctx.GNf))
    return [_report(name, ctx, ra, rb, tol.theorem)]


def check_totally_geodesic_characterization(ctx: PointContext, tol: Tolerances):
    name = "totally_geodesic_characterization"
    tt, G = ctx.tensors, ctx.Gf
    E = _rows(ctx, "vertical", "horizontal")
    ra = _amax(row_norms(_upper(on_pairs(tt.sff, E, E), strict=False), ctx.GNf))
    if ctx.Jf is None:
        return [_report(name, ctx, ra, None, tol.theorem, label=DIRECT_ONLY)]
    C, omega = ctx.C, ctx.omega
    D1, V, JD2 = _rows(ctx, "d1"), _rows(ctx, "vertical"), _rows(ctx, "Jd2")
    # C T(d1_i, J d1_j) + omega(V nabla_{d1_i} J d1_j)
    wa = (on_pairs(tt.t, D1, _rows(ctx, "Jd1")) @ C.T
          + along(D1, ctx.nabla("Jd1")) @ ctx.PVf.T @ omega.T)
    # C(H nabla_{V_i} J d2_j) + omega T(V_i, J d2_j)
    wb = along(V, ctx.nabla("Jd2")) @ ctx.PHf.T @ C.T + on_pairs(tt.t, V, JD2) @ omega.T
    rb = max(_amax(row_norms(wa, G)), _amax(row_norms(wb, G)), ctx.grad_ln_lambda.horizontal_norm)
    return [_report(name, ctx, ra, rb, tol.theorem)]


# ---------------------------------------------------------------------------
# Corollaries


def check_corollaries(ctx: PointContext, tol: Tolerances):
    reports = []
    D2, MU, V, H = (_rows(ctx, n) for n in ("d2", "mu", "vertical", "horizontal"))
    anti_holo = ctx.Jf is not None and len(MU) == 0 and len(D2) > 0
    lam = ctx.split.lam
    h_norm = ctx.grad_ln_lambda.horizontal_norm

    # anti-holomorphic case: J(d2) spans the whole horizontal space
    name1, name2 = "antiholomorphic_integrability", "antiholomorphic_horizontal_geodesic"
    if not anti_holo:
        for nm in (name1, name2):
            reports.append(_report(nm, ctx, 0.0, None, tol.theorem,
                                   label="skipped: hypothesis unmet (not anti-holomorphic)"))
    else:
        JD2 = _rows(ctx, "Jd2")
        S = on_pairs(ctx.tensors.sff, V, JD2)  # S[k, i] = sff(V_k, J d2_i)
        M = np.einsum("in,nm,kjm->ijk", JD2 @ ctx.DFf.T, ctx.GNf, S)
        ra, rb = _bracket_residual(ctx, "horizontal", V), _amax(_upper(M - _swap(M))) / (lam ** 2)
        reports.append(_report(name1, ctx, ra, rb, tol.theorem))
        ra2 = _geodesic_residual(ctx, "horizontal", V)
        rb2 = _amax(_off_pushed_mu(ctx, S)) / (lam ** 2)
        reports.append(_report(name2, ctx, ra2, rb2, tol.theorem))

    # dilation constant characterizations under parallelism hypotheses
    def parallel_report(name, ra, X, family, proj, what, side_b):
        if not len(D2) or not len(MU):
            return _report(name, ctx, ra, 0.0, tol.theorem, vacuous=True,
                           label="vacuous: needs nonzero d2 and mu")
        nab = along(X, ctx.nabla(family))  # the family stays in its span along X
        if _amax(row_norms(nab - nab @ proj.T, ctx.Gf)) > tol.theorem:
            return _report(name, ctx, ra, None, tol.theorem, label=f"hypothesis unmet: {what}")
        return _report(name, ctx, ra, side_b(), tol.theorem)

    reports.append(parallel_report(
        "d2_parallel_homothety", h_norm, H, "d2", ctx.PD2f, "d2 not parallel along horizontal",
        lambda: _amax(_pullback_terms(ctx, on_pairs(ctx.tensors.a, H, _rows(ctx, "BH")), H,
                                      "Jd2", _rows(ctx, "CH")))))
    ra4 = lam * ctx.gnorm(ctx.PMUf @ ctx.grad_ln_lambda.vector) if len(MU) else 0.0
    reports.append(parallel_report(
        "mu_parallel_dilation", ra4, V, "mu", ctx.PMUf, "mu not parallel along the fibers",
        lambda: _amax(_vertical_mu_terms(ctx, with_gradient=False))))
    return reports


# ---------------------------------------------------------------------------
# Identity diagnostics (run on any conformal scene)


def check_sff_identities(ctx: PointContext, tol: Tolerances):
    rh, rv, rm = sff_identity_residuals(ctx)
    return [
        _report("sff_identity_horizontal", ctx, rh, rh, tol.identity, identity=True),
        _report("sff_identity_vertical", ctx, rv, rv, tol.identity, identity=True),
        _report("sff_identity_mixed", ctx, rm, rm, tol.identity, identity=True),
    ]


# ---------------------------------------------------------------------------
# Registry


@dataclass(frozen=True)
class CheckerSpec:
    name: str
    func: Callable
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
