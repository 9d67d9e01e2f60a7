import math

import numpy as np
import pytest

from confsub.errors import (
    AmbiguousSplittingError,
    CriticalPointError,
    SingularMetricError,
    StructureError,
)
from confsub.expr import Const, parse
from confsub.geometry import ChartedManifold, ConstantField, euclidean
from confsub.submersion import (
    FrameField,
    SmoothMap,
    bc_decompose,
    fiber_mean_curvature,
    grad_ln_lambda,
    jacobian,
    oneill_a,
    oneill_t,
    phi_omega,
    second_fundamental_form,
    sff_identity_residuals,
    split_frame,
    tension,
)

from .conftest import contexts, points, scene
from .fdtools import fd_gradient, fd_sff

E33 = "example33"


def e33_point(x3=0.2):
    return np.array([0.1, -0.2, x3, 0.4, 0.6, -0.3])


def fmap(name):
    return scene(name).fmap


# ---------------------------------------------------------------------------
# Jacobian and splitting


def test_jacobian_matches_component_gradients():
    p = np.array([0.0, 0.0, 0.0, 0.0, math.pi / 6, 0.0])
    jac = jacobian(fmap(E33), p)
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    assert jac == pytest.approx(
        np.array([[0, 0, c, 0, -s, 0], [0, 0, s, 0, c, 0]]), abs=1e-15
    )


def test_jacobian_linear_projection_constant():
    jac = jacobian(fmap("linproj42"), np.array([0.3, -0.4, 0.5, 0.9]))
    assert np.array_equal(jac, np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))


def test_jacobian_critical_point():
    F = SmoothMap(euclidean(2), euclidean(1), (parse("x1*x2", 2),))
    with pytest.raises(CriticalPointError):
        jacobian(F, np.zeros(2))


def test_split_frame_dilation_and_dims():
    sf = split_frame(fmap(E33), e33_point(x3=math.log(2.0)))
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
            assert ctx.gnorm(w) < 1e-9
        for w0 in sf.d2:
            assert ctx.gnorm(ctx.PVf @ (J @ w0)) < 1e-9


def test_split_frame_trivial_projection():
    sf = split_frame(fmap("linproj42"), np.array([0.2, 0.1, -0.3, 0.8]))
    assert sf.lam == pytest.approx(1.0)
    assert sf.dims == (2, 0, 0, 2)


def test_split_frame_holomorphic_like():
    # both Jacobian rows have norm e^{x3} and are orthogonal; kernel is J-invariant
    F = fmap("holo4")
    p = np.array([0.4, -0.2, 0.35, 0.7])
    jac = jacobian(F, p)
    assert np.linalg.norm(jac[0]) == pytest.approx(math.exp(p[2]), rel=1e-12)
    assert np.linalg.norm(jac[1]) == pytest.approx(math.exp(p[2]), rel=1e-12)
    assert abs(jac[0] @ jac[1]) < 1e-12
    sf = split_frame(F, p)
    assert sf.lam == pytest.approx(math.exp(p[2]), rel=1e-12)
    assert sf.dims == (2, 0, 0, 2)
    kernel = np.stack(sf.vertical)
    assert np.max(np.abs(kernel[:, 2:])) < 1e-12  # ker spanned by the first pair


def test_split_frame_proper_semi_invariant():
    sf = split_frame(fmap("linproj63"), np.full(6, 0.1))
    assert sf.dims == (2, 1, 1, 2)


def test_split_frame_ambiguous():
    F = SmoothMap(
        euclidean(4, with_j=True),
        euclidean(2),
        (parse("x1", 4), parse("(x2 + x3)*0.7071067811865476", 4)),
    )
    with pytest.raises(AmbiguousSplittingError):
        split_frame(F, np.zeros(4))


# ---------------------------------------------------------------------------
# phi / omega / B / C


def test_phi_omega_invariant_direction():
    F = fmap(E33)
    p = e33_point()
    e1 = np.eye(6)[0]
    phi, omega = phi_omega(F, p, e1)
    assert phi == pytest.approx(np.eye(6)[1], abs=1e-12)  # J e1 = e2
    assert np.linalg.norm(omega) < 1e-12


def test_phi_omega_anti_invariant_direction():
    F = fmap(E33)
    p = e33_point()
    ctx = F.context(p)
    e4 = np.eye(6)[3]
    phi, omega = phi_omega(F, p, e4)
    assert np.linalg.norm(phi) < 1e-12
    assert omega == pytest.approx(ctx.Jf @ e4, abs=1e-12)  # fully horizontal image


def test_phi_omega_rejects_horizontal():
    F = fmap(E33)
    with pytest.raises(StructureError, match="not vertical"):
        phi_omega(F, e33_point(), np.eye(6)[2])


def test_omega_vanishes_on_d1():
    for ctx in contexts(E33, count=3):
        for u in ctx.split.d1:
            _, omega = phi_omega(ctx.fmap, ctx.p, u)
            assert np.linalg.norm(omega) < 1e-12


def test_bc_decompose_on_jd2():
    for ctx in contexts(E33, count=3):
        for x in ctx.split.jd2:
            b, c = bc_decompose(ctx.fmap, ctx.p, x)
            assert np.linalg.norm(c) < 1e-10
            assert ctx.gnorm(b) == pytest.approx(1.0, abs=1e-10)


def test_bc_b_of_jw_is_minus_w():
    for ctx in contexts(E33, count=3):
        for w in ctx.split.d2:
            b, _ = bc_decompose(ctx.fmap, ctx.p, ctx.Jf @ w)
            assert b == pytest.approx(-w, abs=1e-10)


def test_bc_trivial_when_d2_empty():
    F = fmap("holo4")
    p = np.array([0.1, 0.2, 0.0, 0.5])
    ctx = F.context(p)
    for x in ctx.split.horizontal:
        b, c = bc_decompose(F, p, x)
        assert np.linalg.norm(b) < 1e-12
        assert c == pytest.approx(ctx.Jf @ x, abs=1e-12)


def test_j_coherence():
    # phi(phi v) + B(omega v) = -v on the vertical space
    for ctx in contexts(E33, count=3) + contexts("linproj63", count=3):
        for v in ctx.split.vertical:
            res = ctx.phi_vec(ctx.phi_vec(v)) + ctx.b_vec(ctx.omega_vec(v)) + v
            assert ctx.gnorm(res) < 1e-9


def test_pushed_distributions_orthogonal():
    # dF(J d2) is g_N-orthogonal to dF(mu)
    for ctx in contexts("linproj63", count=3):
        for w in ctx.split.d2:
            for x in ctx.split.mu:
                val = ctx.push(ctx.Jf @ w) @ ctx.GNf @ ctx.push(x)
                assert abs(val) < 1e-8


# ---------------------------------------------------------------------------
# O'Neill tensors


def test_t_vanishes_on_affine_fibers():
    ctx = fmap(E33).context(e33_point())
    for v in ctx.split.vertical:
        for w in ctx.split.vertical:
            assert np.linalg.norm(oneill_t(ctx.fmap, ctx.p, v, w)) < 1e-12


def test_t_ignores_horizontal_first_slot():
    ctx = fmap(E33).context(e33_point())
    for x in ctx.split.horizontal:
        out = oneill_t(ctx.fmap, ctx.p, x, np.array([1.0, -2.0, 0.5, 0.3, 0.1, 0.9]))
        assert np.linalg.norm(out) < 1e-12


def test_a_vanishes_for_linear_projection():
    F = fmap("linproj42")
    p = np.array([0.2, -0.1, 0.7, 0.4])
    for _ in range(5):
        e, g = np.random.default_rng(1).normal(size=(2, 4))
        assert np.linalg.norm(oneill_a(F, p, e, g)) < 1e-12


def test_a_alternation_against_bracket():
    # vertical part of A on horizontal frame pairs equals half the bracket here
    F = fmap(E33)
    p = e33_point()
    ctx = F.context(p)
    X1, X2 = ctx.split.horizontal
    br = ctx.bracket(ctx.subframe_jets("horizontal")[0], ctx.subframe_jets("horizontal")[1])
    a12 = ctx.PVf @ oneill_a(F, p, X1, X2)
    assert a12 == pytest.approx(0.5 * (ctx.PVf @ br), abs=1e-9)


def test_tensor_skew_symmetry(rng):
    for name in (E33, "linproj63", "holo4"):
        ctx = fmap(name).context(np.asarray(points(name, count=1)[0]))
        G = ctx.Gf
        for _ in range(25):
            E, W, Z = rng.normal(size=(3, ctx.fmap.source.dim))
            V = ctx.PVf @ E
            X = ctx.PHf @ E
            assert abs(oneill_t(ctx.fmap, ctx.p, V, W) @ G @ Z + W @ G @ oneill_t(ctx.fmap, ctx.p, V, Z)) < 1e-8
            assert abs(oneill_a(ctx.fmap, ctx.p, X, W) @ G @ Z + W @ G @ oneill_a(ctx.fmap, ctx.p, X, Z)) < 1e-8


# ---------------------------------------------------------------------------
# second fundamental form / tension / curvature


def test_sff_exponential_example():
    F = fmap("exp1")
    p = np.zeros(2)
    e1 = np.array([1.0, 0.0])
    assert second_fundamental_form(F, p, e1, e1) == pytest.approx([1.0], abs=1e-12)


def test_sff_linear_projection_zero(rng):
    F = fmap("linproj42")
    p = np.array([0.5, 0.5, -0.5, 0.25])
    for _ in range(5):
        X, Y = rng.normal(size=(2, 4))
        assert np.linalg.norm(second_fundamental_form(F, p, X, Y)) < 1e-12


def test_sff_symmetric(rng):
    for name in (E33, "holo4"):
        F = fmap(name)
        p = np.asarray(points(name, count=1)[0])
        for _ in range(10):
            X, Y = rng.normal(size=(2, F.source.dim))
            s1 = second_fundamental_form(F, p, X, Y)
            s2 = second_fundamental_form(F, p, Y, X)
            assert np.max(np.abs(s1 - s2)) < 1e-8


def test_sff_tensorial_under_extension_change(rng):
    for name in (E33, "holo4", "linproj63"):
        F = fmap(name)
        p = np.asarray(points(name, count=1)[0])
        for _ in range(10):
            X, Y = rng.normal(size=(2, F.source.dim))
            frame_ext = second_fundamental_form(F, p, X, Y)
            coord_ext = second_fundamental_form(F, p, ConstantField(X), ConstantField(Y))
            assert np.max(np.abs(frame_ext - coord_ext)) < 1e-8


def test_sff_matches_finite_differences():
    F = fmap(E33)
    p = e33_point(0.15)
    X = FrameField(F, "horizontal", 0)
    V = FrameField(F, "vertical", 0)
    got = second_fundamental_form(F, p, X, V)
    want = fd_sff(F, p, X, V)
    assert np.max(np.abs(got - want)) < 1e-6
    got2 = second_fundamental_form(F, p, X, X)
    want2 = fd_sff(F, p, X, X)
    assert np.max(np.abs(got2 - want2)) < 1e-6


def test_tension_values():
    assert np.linalg.norm(tension(fmap(E33), e33_point())) < 1e-7
    assert np.linalg.norm(tension(fmap("linproj42"), np.array([0.1, 0.2, 0.3, 0.4]))) < 1e-12
    assert tension(fmap("exp1"), np.zeros(2)) == pytest.approx([1.0], abs=1e-12)


def test_fiber_mean_curvature_values():
    assert np.linalg.norm(fiber_mean_curvature(fmap(E33), e33_point())) < 1e-12
    assert np.linalg.norm(fiber_mean_curvature(fmap("linproj42"), np.array([0.1, 0.2, 0.3, 0.4]))) < 1e-12


def test_fiber_mean_curvature_curved_fibers():
    # oracle: T_V V for the unit vertical field V = (1/x1) d2 via the connection
    F = fmap("diag-x1sq")
    p = np.array([2.0, 0.0])
    got = fiber_mean_curvature(F, p)
    V = np.array([0.0, 0.5])  # unit at x1 = 2
    oracle = oneill_t(F, p, V, V)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx([-0.5, 0.0], abs=1e-12)


# ---------------------------------------------------------------------------
# dilation gradient


def test_grad_ln_lambda_exponential_example():
    F = fmap(E33)
    p = e33_point(0.25)
    g = grad_ln_lambda(F, p)
    assert g.vector == pytest.approx(np.eye(6)[2], abs=1e-10)
    assert not g.horizontally_homothetic  # x3 is a horizontal direction here
    assert g.horizontal_norm == pytest.approx(math.exp(0.25), rel=1e-9)
    # cross-check against finite differences of the detected dilation
    fd = fd_gradient(lambda q: math.log(split_frame(F, q).lam), p)
    assert g.vector == pytest.approx(fd, abs=1e-6)


def test_grad_ln_lambda_flat_cases():
    g = grad_ln_lambda(fmap("linproj42"), np.array([0.3, 0.1, -0.5, 0.2]))
    assert np.linalg.norm(g.vector) < 1e-12
    assert g.horizontally_homothetic


def test_grad_ln_lambda_horizontal_case():
    g = grad_ln_lambda(fmap("exp1"), np.zeros(2))
    assert g.vector == pytest.approx([1.0, 0.0], abs=1e-12)
    assert not g.horizontally_homothetic


# ---------------------------------------------------------------------------
# conformal sff identities


def test_sff_identities_on_conformal_presets():
    for name in (E33, "linproj42", "linproj63", "holo4", "exp1"):
        for p in points(name, count=4):
            rh, rv, rm = sff_identity_residuals(fmap(name), np.asarray(p))
            assert max(rh, rv, rm) < 1e-7, name


def test_sff_identity_horizontal_hand_value():
    # at the origin of the exponential machinery preset both sides equal one
    F = fmap("exp1")
    p = np.zeros(2)
    ctx = F.context(p)
    e1 = np.array([1.0, 0.0])
    lhs = second_fundamental_form(F, p, e1, e1)
    g = grad_ln_lambda(F, p)
    rhs = 2.0 * ctx.dln_lambda(e1) * ctx.push(e1) - float(e1 @ ctx.Gf @ e1) * ctx.push(g.vector)
    assert lhs == pytest.approx([1.0], abs=1e-9)
    assert rhs == pytest.approx([1.0], abs=1e-9)


def test_covariant_phi_omega_structure_identities():
    # the covariant derivatives of phi and omega close through B, C and T
    for name in (E33, "linproj63"):
        for ctx in contexts(name, count=3):
            vert = ctx.frame("vertical")
            vjets = ctx.subframe_jets("vertical")
            for i, V in enumerate(vert):
                for j, W in enumerate(vert):
                    TVW = ctx.t_tensor(V, W)
                    phi_W = ctx.phi_vec(W)
                    om_W = ctx.omega_vec(W)
                    hat_V_W = ctx.PVf @ ctx.cov(V, vjets[j])
                    hat_V_phiW = ctx.PVf @ ctx.cov(V, ctx.phi_jets(vjets[j]))
                    lhs1 = hat_V_phiW - ctx.phi_vec(hat_V_W)
                    rhs1 = ctx.b_vec(TVW) - ctx.t_tensor(V, om_W)
                    assert ctx.gnorm(lhs1 - rhs1) < 1e-6
                    h_V_omW = ctx.PHf @ ctx.cov(V, ctx.omega_jets(vjets[j]))
                    lhs2 = h_V_omW - ctx.omega_vec(hat_V_W)
                    rhs2 = ctx.c_vec(TVW) - ctx.t_tensor(V, phi_W)
                    assert ctx.gnorm(lhs2 - rhs2) < 1e-6


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
        got = second_fundamental_form(F, p, e1, e1)
        want = fd_sff(F, p, ConstantField(e1), ConstantField(e1))
        assert got == pytest.approx([1.0], abs=1e-12)  # Gamma_N = 1 everywhere
        assert got == pytest.approx(want, abs=1e-6)
        # dilation tracks the composed target metric: lambda = e^{x1}
        g = grad_ln_lambda(F, p)
        assert split_frame(F, p).lam == pytest.approx(math.exp(p[0]), rel=1e-12)
        assert g.vector == pytest.approx([1.0, 0.0], abs=1e-10)
        rh, rv, rm = sff_identity_residuals(F, p)
        assert max(rh, rv, rm) < 1e-9


def test_fundamental_tensors_bundle():
    from confsub.submersion import fundamental_tensors

    F = fmap(E33)
    p = e33_point()
    ft = fundamental_tensors(F, p)
    assert ft.point == tuple(p)
    assert np.linalg.norm(ft.tension) < 1e-7
    assert np.linalg.norm(ft.fiber_mean_curvature) < 1e-12
    v = np.eye(6)[0]
    assert np.linalg.norm(ft.t(v, v)) < 1e-12
    assert ft.sff(v, v) == pytest.approx(-F.context(p).push(ft.t(v, v)), abs=1e-9)


def test_decompositions_need_complex_structure():
    F = fmap("exp1")
    p = np.zeros(2)
    with pytest.raises(StructureError, match="complex structure"):
        phi_omega(F, p, np.array([0.0, 1.0]))
    with pytest.raises(StructureError, match="complex structure"):
        bc_decompose(F, p, np.array([1.0, 0.0]))


def test_non_conformal_map_rejected():
    from confsub.errors import NotConformalError

    # anisotropic scaling: horizontal inner products are not a single multiple
    F = SmoothMap(euclidean(3), euclidean(2), (parse("x1", 3), parse("2*x2", 3)))
    with pytest.raises(NotConformalError, match="not horizontally conformal"):
        split_frame(F, np.array([0.1, 0.2, 0.3]))


def test_singular_metric_rejected():
    # zero, singular and near-singular metrics: a pivot below 1e-14 of the
    # largest entry is singular; just above it the frame pass proceeds
    def diag_map(g11, g22):
        zero = Const(0.0)
        metric = ((parse(g11, 2), zero), (zero, parse(g22, 2)))
        return SmoothMap(ChartedManifold(2, metric), euclidean(1), (parse("x1", 2),))

    p = np.array([0.1, 0.2])
    for g11, g22 in (("0", "0"), ("1", "0"), ("1", "5e-15")):
        with pytest.raises(SingularMetricError):
            split_frame(diag_map(g11, g22), p)
    assert split_frame(diag_map("1", "2e-14"), p).lam == pytest.approx(1.0)
