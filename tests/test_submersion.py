import math

import numpy as np
import pytest

from confsub.config import DEFAULT_TOLERANCES
from confsub.errors import (
    AmbiguousSplittingError,
    CriticalPointError,
    NonSPDMetricError,
)
from confsub.expr import Const, eval_jet2, parse
from confsub.geometry import (
    ChartedManifold,
    ConstantField,
    brackets,
    christoffel_symbols,
    covariant_derivative,
    euclidean,
    metric_jet,
    nabla,
)
from confsub.jets import ArrayJet
from confsub.submersion import SmoothMap, on_pairs, row_norms
from confsub.theorems import sff_identity_residuals

from .conftest import contexts, points, scene
from .fdtools import FrameField, fd_gradient, fd_sff

E33 = "example33"


def e33_point(x3=0.2):
    return np.array([0.1, -0.2, x3, 0.4, 0.6, -0.3])


def fmap(name):
    return scene(name).fmap


def tensors(F, p):
    return F.context(p).tensors


def gnorm(ctx, v):
    return float(row_norms(np.asarray(v, dtype=float), ctx.Gf))


def coordinate_sff(F, p, X, Y):
    """(nabla dF)(X, Y) on the constant coordinate fields X, Y, assembled apart from the tables.

    Component values, Hessians and gradients come from `eval_jet2` on the
    batch of one, the target connection from the target metric jet at the
    image point, nabla_X Y from `geometry.covariant_derivative`.
    """
    jets = [eval_jet2(c, [p]) for c in F.components]
    hess, DF = np.array([j.hessian[0] for j in jets]), np.array([j.gradient[0] for j in jets])
    q = np.array([j.value[0] for j in jets])
    gamma_n = christoffel_symbols(metric_jet(F.target, q), q)
    nab = covariant_derivative(F.source, ConstantField(Y), X, p)
    return (hess @ Y) @ X + (gamma_n @ (DF @ Y)) @ (DF @ X) - DF @ nab


# ---------------------------------------------------------------------------
# Jacobian and splitting


def test_jacobian_matches_component_gradients():
    p = np.array([0.0, 0.0, 0.0, 0.0, math.pi / 6, 0.0])
    jac = fmap(E33).context(p).DFf
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    assert jac == pytest.approx(
        np.array([[0, 0, c, 0, -s, 0], [0, 0, s, 0, c, 0]]), abs=1e-15
    )


def test_jacobian_linear_projection_constant():
    jac = fmap("linproj42").context(np.array([0.3, -0.4, 0.5, 0.9])).DFf
    assert np.array_equal(jac, np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))


def test_jacobian_critical_point():
    F = SmoothMap(euclidean(2), euclidean(1), (parse("x1*x2", 2),))
    with pytest.raises(CriticalPointError):
        F.context(np.zeros(2)).DFf


def test_split_frame_dilation_and_dims():
    sf = fmap(E33).context(e33_point(x3=math.log(2.0))).split
    assert sf.lam == pytest.approx(2.0, rel=1e-12)
    assert sf.dims == (2, 2, 2, 0)
    # d1 spans the first coordinate pair, d2 the (4, 6) pair
    span_d1 = np.stack(sf.d1)
    assert np.max(np.abs(span_d1[:, 2:])) < 1e-12
    span_d2 = np.stack(sf.d2)
    assert np.max(np.abs(span_d2[:, [0, 1, 2, 4]])) < 1e-12


def test_split_frame_orthonormal_and_kernel():
    for ctx in contexts(E33, count=4):
        sf = ctx.split
        frame = np.stack(sf.vertical + sf.horizontal)
        gram = frame @ ctx.Gf @ frame.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-9
        for v in sf.vertical:
            assert np.linalg.norm(ctx.DFf @ v) < 1e-9
        assert sf.lambda_sq_residual < 1e-8 * sf.lam**2
        assert sf.lam == pytest.approx(math.exp(ctx.p[2]), rel=1e-12)


def test_split_frame_invariant_projection():
    for ctx in contexts(E33, count=4):
        sf = ctx.split
        J = ctx.Jf
        for u in sf.d1:
            w = J @ u - ctx.PD1f @ (J @ u)
            assert gnorm(ctx, w) < 1e-9
        for w0 in sf.d2:
            assert gnorm(ctx, ctx.PVf @ (J @ w0)) < 1e-9


def test_split_frame_trivial_projection():
    sf = fmap("linproj42").context(np.array([0.2, 0.1, -0.3, 0.8])).split
    assert sf.lam == pytest.approx(1.0)
    assert sf.dims == (2, 0, 0, 2)


def test_split_frame_holomorphic_like():
    # both Jacobian rows have norm e^{x3} and are orthogonal; kernel is J-invariant
    F = fmap("holo4")
    p = np.array([0.4, -0.2, 0.35, 0.7])
    jac = F.context(p).DFf
    assert np.linalg.norm(jac[0]) == pytest.approx(math.exp(p[2]), rel=1e-12)
    assert np.linalg.norm(jac[1]) == pytest.approx(math.exp(p[2]), rel=1e-12)
    assert abs(jac[0] @ jac[1]) < 1e-12
    sf = F.context(p).split
    assert sf.lam == pytest.approx(math.exp(p[2]), rel=1e-12)
    assert sf.dims == (2, 0, 0, 2)
    kernel = np.stack(sf.vertical)
    assert np.max(np.abs(kernel[:, 2:])) < 1e-12  # ker spanned by the first pair


def test_split_frame_proper_semi_invariant():
    sf = fmap("linproj63").context(np.full(6, 0.1)).split
    assert sf.dims == (2, 1, 1, 2)


def test_split_frame_ambiguous():
    F = SmoothMap(
        euclidean(4, with_j=True),
        euclidean(2),
        (parse("x1", 4), parse("(x2 + x3)*0.7071067811865476", 4)),
    )
    with pytest.raises(AmbiguousSplittingError):
        F.context(np.zeros(4)).split


# ---------------------------------------------------------------------------
# phi / omega / B / C


def test_phi_omega_invariant_direction():
    ctx = fmap(E33).context(e33_point())
    e1 = np.eye(6)[0]
    assert ctx.phi @ e1 == pytest.approx(np.eye(6)[1], abs=1e-12)  # J e1 = e2
    assert np.linalg.norm(ctx.omega @ e1) < 1e-12


def test_phi_omega_anti_invariant_direction():
    ctx = fmap(E33).context(e33_point())
    e4 = np.eye(6)[3]
    assert np.linalg.norm(ctx.phi @ e4) < 1e-12
    assert ctx.omega @ e4 == pytest.approx(ctx.Jf @ e4, abs=1e-12)  # fully horizontal image


def test_omega_vanishes_on_d1():
    for ctx in contexts(E33, count=3):
        for u in ctx.split.d1:
            assert np.linalg.norm(ctx.omega @ u) < 1e-12


def test_bc_decompose_on_jd2():
    for ctx in contexts(E33, count=3):
        for x in ctx.split.jd2:
            assert np.linalg.norm(ctx.C @ x) < 1e-10
            assert gnorm(ctx, ctx.B @ x) == pytest.approx(1.0, abs=1e-10)


def test_bc_b_of_jw_is_minus_w():
    for ctx in contexts(E33, count=3):
        for w in ctx.split.d2:
            assert ctx.B @ (ctx.Jf @ w) == pytest.approx(-w, abs=1e-10)


def test_bc_trivial_when_d2_empty():
    ctx = fmap("holo4").context(np.array([0.1, 0.2, 0.0, 0.5]))
    for x in ctx.split.horizontal:
        assert np.linalg.norm(ctx.B @ x) < 1e-12
        assert ctx.C @ x == pytest.approx(ctx.Jf @ x, abs=1e-12)


def test_j_coherence():
    # phi(phi v) + B(omega v) = -v on the vertical space
    for ctx in contexts(E33, count=3) + contexts("linproj63", count=3):
        for v in ctx.split.vertical:
            res = ctx.phi @ (ctx.phi @ v) + ctx.B @ (ctx.omega @ v) + v
            assert gnorm(ctx, res) < 1e-9


def test_pushed_distributions_orthogonal():
    # dF(J d2) is g_N-orthogonal to dF(mu)
    for ctx in contexts("linproj63", count=3):
        for w in ctx.split.d2:
            for x in ctx.split.mu:
                val = (ctx.DFf @ ctx.Jf @ w) @ ctx.GNf @ (ctx.DFf @ x)
                assert abs(val) < 1e-8


# ---------------------------------------------------------------------------
# O'Neill tensors


def test_t_vanishes_on_affine_fibers():
    ctx = fmap(E33).context(e33_point())
    for v in ctx.split.vertical:
        for w in ctx.split.vertical:
            assert np.linalg.norm(on_pairs(ctx.tensors.t, v, w)) < 1e-12


def test_t_ignores_horizontal_first_slot():
    ctx = fmap(E33).context(e33_point())
    for x in ctx.split.horizontal:
        out = on_pairs(ctx.tensors.t, x, np.array([1.0, -2.0, 0.5, 0.3, 0.1, 0.9]))
        assert np.linalg.norm(out) < 1e-12


def test_a_vanishes_for_linear_projection():
    F = fmap("linproj42")
    p = np.array([0.2, -0.1, 0.7, 0.4])
    for _ in range(5):
        e, g = np.random.default_rng(1).normal(size=(2, 4))
        assert np.linalg.norm(on_pairs(tensors(F, p).a, e, g)) < 1e-12


def test_a_alternation_against_bracket():
    # vertical part of A on horizontal frame pairs equals half the bracket here
    F = fmap(E33)
    p = e33_point()
    ctx = F.context(p)
    X1, X2 = ctx.split.horizontal
    H = ArrayJet.stack([ctx.family("horizontal")])
    br = brackets(H, H)[0, 0, 1]
    a12 = ctx.PVf @ on_pairs(ctx.tensors.a, X1, X2)
    assert a12 == pytest.approx(0.5 * (ctx.PVf @ br), abs=1e-9)


def test_tensor_skew_symmetry(rng):
    for name in (E33, "linproj63", "holo4"):
        ctx = fmap(name).context(np.asarray(points(name, count=1)[0]))
        G = ctx.Gf
        for _ in range(25):
            E, W, Z = rng.normal(size=(3, ctx.fmap.source.dim))
            V = ctx.PVf @ E
            X = ctx.PHf @ E
            T, A = ctx.tensors.t, ctx.tensors.a
            assert abs(on_pairs(T, V, W) @ G @ Z + W @ G @ on_pairs(T, V, Z)) < 1e-8
            assert abs(on_pairs(A, X, W) @ G @ Z + W @ G @ on_pairs(A, X, Z)) < 1e-8


# ---------------------------------------------------------------------------
# second fundamental form / tension / curvature


def test_sff_exponential_example():
    F = fmap("exp1")
    p = np.zeros(2)
    e1 = np.array([1.0, 0.0])
    assert on_pairs(tensors(F, p).sff, e1, e1) == pytest.approx([1.0], abs=1e-12)


def test_sff_linear_projection_zero(rng):
    F = fmap("linproj42")
    p = np.array([0.5, 0.5, -0.5, 0.25])
    for _ in range(5):
        X, Y = rng.normal(size=(2, 4))
        assert np.linalg.norm(on_pairs(tensors(F, p).sff, X, Y)) < 1e-12


def test_sff_symmetric(rng):
    for name in (E33, "holo4"):
        F = fmap(name)
        p = np.asarray(points(name, count=1)[0])
        for _ in range(10):
            X, Y = rng.normal(size=(2, F.source.dim))
            s1 = on_pairs(tensors(F, p).sff, X, Y)
            s2 = on_pairs(tensors(F, p).sff, Y, X)
            assert np.max(np.abs(s1 - s2)) < 1e-8


def test_sff_tensorial_under_extension_change(rng):
    for name in (E33, "holo4", "linproj63"):
        F = fmap(name)
        p = np.asarray(points(name, count=1)[0])
        for _ in range(10):
            X, Y = rng.normal(size=(2, F.source.dim))
            frame_ext = on_pairs(tensors(F, p).sff, X, Y)
            coord_ext = coordinate_sff(F, p, X, Y)
            assert np.max(np.abs(frame_ext - coord_ext)) < 1e-8


def test_sff_matches_finite_differences():
    F = fmap(E33)
    p = e33_point(0.15)
    X = FrameField(F, "horizontal", 0)
    V = FrameField(F, "vertical", 0)
    S = tensors(F, p).sff
    got = on_pairs(S, X.values_at(p), V.values_at(p))
    want = fd_sff(F, p, X, V)
    assert np.max(np.abs(got - want)) < 1e-6
    got2 = on_pairs(S, X.values_at(p), X.values_at(p))
    want2 = fd_sff(F, p, X, X)
    assert np.max(np.abs(got2 - want2)) < 1e-6


def test_tension_values():
    assert np.linalg.norm(tensors(fmap(E33), e33_point()).tension) < 1e-7
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.linalg.norm(tensors(fmap("linproj42"), p).tension) < 1e-12
    assert tensors(fmap("exp1"), np.zeros(2)).tension == pytest.approx([1.0], abs=1e-12)


def test_fiber_mean_curvature_values():
    assert np.linalg.norm(tensors(fmap(E33), e33_point()).fiber_mean_curvature) < 1e-12
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.linalg.norm(tensors(fmap("linproj42"), p).fiber_mean_curvature) < 1e-12


def test_fiber_mean_curvature_curved_fibers():
    # oracle: T_V V for the unit vertical field V = (1/x1) d2 via the connection
    F = fmap("diag-x1sq")
    p = np.array([2.0, 0.0])
    got = tensors(F, p).fiber_mean_curvature
    V = np.array([0.0, 0.5])  # unit at x1 = 2
    oracle = on_pairs(tensors(F, p).t, V, V)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx([-0.5, 0.0], abs=1e-12)


# ---------------------------------------------------------------------------
# dilation gradient


def test_grad_ln_lambda_exponential_example():
    F = fmap(E33)
    p = e33_point(0.25)
    g = F.context(p).grad_ln_lambda
    assert g.vector == pytest.approx(np.eye(6)[2], abs=1e-10)
    assert g.horizontal_norm > DEFAULT_TOLERANCES.theorem  # x3 is a horizontal direction here
    assert g.horizontal_norm == pytest.approx(math.exp(0.25), rel=1e-9)
    # cross-check against finite differences of the detected dilation
    fd = fd_gradient(lambda q: math.log(F.context(q).split.lam), p)
    assert g.vector == pytest.approx(fd, abs=1e-6)


def test_grad_ln_lambda_flat_cases():
    g = fmap("linproj42").context(np.array([0.3, 0.1, -0.5, 0.2])).grad_ln_lambda
    assert np.linalg.norm(g.vector) < 1e-12
    assert g.horizontal_norm < 1e-12


def test_grad_ln_lambda_horizontal_case():
    g = fmap("exp1").context(np.zeros(2)).grad_ln_lambda
    assert g.vector == pytest.approx([1.0, 0.0], abs=1e-12)
    assert g.horizontal_norm == pytest.approx(1.0, abs=1e-12)  # lambda = 1, grad ln lambda = e1


# ---------------------------------------------------------------------------
# conformal sff identities


def test_sff_identities_on_conformal_presets():
    for name in (E33, "linproj42", "linproj63", "holo4", "exp1"):
        for p in points(name, count=4):
            rh, rv, rm = sff_identity_residuals(fmap(name).context(np.asarray(p)))
            assert max(rh, rv, rm) < 1e-7, name


def test_sff_identity_horizontal_hand_value():
    # at the origin of the exponential machinery preset both sides equal one
    F = fmap("exp1")
    p = np.zeros(2)
    ctx = F.context(p)
    e1 = np.array([1.0, 0.0])
    lhs = on_pairs(ctx.tensors.sff, e1, e1)
    g = ctx.grad_ln_lambda
    dln = float(e1 @ ctx.Gf @ g.vector)  # d ln(lambda) along e1
    rhs = 2.0 * dln * (ctx.DFf @ e1) - float(e1 @ ctx.Gf @ e1) * (ctx.DFf @ g.vector)
    assert lhs == pytest.approx([1.0], abs=1e-9)
    assert rhs == pytest.approx([1.0], abs=1e-9)


def test_covariant_phi_omega_structure_identities():
    # the covariant derivatives of phi and omega close through B, C and T
    for name in (E33, "linproj63"):
        for ctx in contexts(name, count=3):
            f, T = ctx.data, ctx.tensors.t
            # nabla of the fields omega(V_j) = P_JD2 J V_j
            omega_v = ArrayJet.stack([f.vertical @ (f.PJD2 @ f.J).T])
            nabla_omega = nabla(ctx.gamma_src[None], omega_v)[0]
            for V in f.vertical.v:
                for j, W in enumerate(f.vertical.v):
                    TVW = on_pairs(T, V, W)
                    phi_W = ctx.phi @ W
                    om_W = ctx.omega @ W
                    hat_V_W = ctx.PVf @ np.tensordot(V, ctx.nabla("vertical"), 1)[j]
                    hat_V_phiW = ctx.PVf @ np.tensordot(V, ctx.nabla("phiV"), 1)[j]
                    lhs1 = hat_V_phiW - ctx.phi @ hat_V_W
                    rhs1 = ctx.B @ TVW - on_pairs(T, V, om_W)
                    assert gnorm(ctx, lhs1 - rhs1) < 1e-6
                    h_V_omW = ctx.PHf @ np.tensordot(V, nabla_omega, 1)[j]
                    lhs2 = h_V_omW - ctx.omega @ hat_V_W
                    rhs2 = ctx.C @ TVW - on_pairs(T, V, phi_W)
                    assert gnorm(ctx, lhs2 - rhs2) < 1e-6


def test_families_are_the_operators_on_their_frames():
    # the tabulated families are J, B, C and phi applied to the frames
    for name in (E33, "linproj63", "holo4"):
        for ctx in contexts(name, count=2):
            rows = lambda n: ctx.family(n).v
            J = ctx.Jf
            assert np.allclose(rows("Jd1"), rows("d1") @ J.T, atol=1e-12)
            assert np.allclose(rows("Jd2"), rows("d2") @ J.T, atol=1e-12)
            assert np.allclose(rows("BH"), rows("horizontal") @ ctx.B.T, atol=1e-12)
            assert np.allclose(rows("CH"), rows("horizontal") @ ctx.C.T, atol=1e-12)
            assert np.allclose(rows("phiV"), rows("vertical") @ ctx.phi.T, atol=1e-12)
            assert np.allclose(ctx.B, ctx.PD2f @ J) and np.allclose(ctx.C, ctx.PMUf @ J)


def test_splitting_completeness():
    for name in (E33, "linproj63", "holo4"):
        for ctx in contexts(name, count=2):
            assert np.max(np.abs(ctx.PVf + ctx.PHf - np.eye(ctx.fmap.source.dim))) < 1e-10


def test_curved_target_connection_enters_sff():
    # exponential metric on the 1-dimensional target: the pullback-connection
    # term alone produces a constant second fundamental form
    from confsub.scenes import load_scene_text

    sc = load_scene_text(
        """
name = curved-target
[source]
dim = 2
metric = euclidean
[target]
dim = 1
g 1 1 = exp(2*x1)
[map]
F 1 = x1
[sampling]
box = -1 1, -1 1
count = 4
seed = 5
"""
    )
    F = sc.fmap
    for p in ((0.0, 0.0), (0.4, -0.3)):
        p = np.array(p)
        e1 = np.array([1.0, 0.0])
        ctx = F.context(p)
        got = on_pairs(ctx.tensors.sff, e1, e1)
        want = fd_sff(F, p, ConstantField(e1), ConstantField(e1))
        assert got == pytest.approx([1.0], abs=1e-12)  # Gamma_N = 1 everywhere
        assert got == pytest.approx(want, abs=1e-6)
        # dilation tracks the composed target metric: lambda = e^{x1}
        g = ctx.grad_ln_lambda
        assert ctx.split.lam == pytest.approx(math.exp(p[0]), rel=1e-12)
        assert g.vector == pytest.approx([1.0, 0.0], abs=1e-10)
        rh, rv, rm = sff_identity_residuals(ctx)
        assert max(rh, rv, rm) < 1e-9


def test_fundamental_tensors_bundle():
    F = fmap(E33)
    p = e33_point()
    ft = tensors(F, p)
    assert ft.point == tuple(p)
    assert np.linalg.norm(ft.tension) < 1e-7
    assert np.linalg.norm(ft.fiber_mean_curvature) < 1e-12
    v = np.eye(6)[0]
    assert np.linalg.norm(on_pairs(ft.t, v, v)) < 1e-12
    pushed_t = F.context(p).DFf @ on_pairs(ft.t, v, v)
    assert on_pairs(ft.sff, v, v) == pytest.approx(-pushed_t, abs=1e-9)


def test_non_conformal_map_rejected():
    from confsub.errors import NotConformalError

    # anisotropic scaling: horizontal inner products are not a single multiple
    F = SmoothMap(euclidean(3), euclidean(2), (parse("x1", 3), parse("2*x2", 3)))
    with pytest.raises(NotConformalError, match="not horizontally conformal"):
        F.context(np.array([0.1, 0.2, 0.3])).split


def test_singular_metric_rejected():
    # zero, singular, near-singular and indefinite metrics: the pass rejects a
    # smallest eigenvalue at most 1e-12 of the largest; just above it, it proceeds
    def diag_map(g11, g22):
        zero = Const(0.0)
        metric = ((parse(g11, 2), zero), (zero, parse(g22, 2)))
        return SmoothMap(ChartedManifold(2, metric), euclidean(1), (parse("x1", 2),))

    p = np.array([0.1, 0.2])
    for g11, g22 in (("0", "0"), ("1", "0"), ("1", "5e-15"), ("1", "2e-14"), ("1", "1e-12"), ("1", "0 - 1")):
        with pytest.raises(NonSPDMetricError) as err:
            diag_map(g11, g22).context(p).split
        assert str(err.value).startswith("source metric not positive definite at (0.1, 0.2): eigs [")
    assert diag_map("1", "2e-12").context(p).split.lam == 1.0
