import math
from types import SimpleNamespace

import numpy as np
import pytest

from confsub.config import DEFAULT_TOLERANCES
from confsub.errors import (
    AmbiguousSplittingError,
    CriticalPointError,
    NonSPDMetricError,
)
from confsub.expr import Const, eval_jet2, parse
from confsub.geometry import ChartedManifold, brackets, euclidean, nabla
from confsub.submersion import SmoothMap, _projector, row_norms
from confsub.theorems import check_sff_identities

from .conftest import entries, entry, points, reports_at, scene
from .fdtools import (
    ConstantField,
    FrameField,
    christoffel_symbols,
    covariant_derivative,
    fd_gradient,
    fd_sff,
    metric_jet,
    on_pairs,
)

E33 = "example33"


def e33_point(x3=0.2):
    return np.array([0.1, -0.2, x3, 0.4, 0.6, -0.3])


def fmap(name):
    return scene(name).fmap


TENSORS = ("sff", "t", "a", "tension", "fiber_mean_curvature")


def tensors(F, p):
    """The tables of the batch of one at p, at its point."""
    g, k = entry(F, p)
    return SimpleNamespace(**{name: getattr(g, name)[k] for name in TENSORS})


SPLIT = ("vertical", "horizontal", "d1", "d2", "jd2", "mu")


def split(F, p):
    """The frames, dims and dilation of the batch of one at p, at its point; raises the point's error."""
    g, k = entry(F, p)
    frames = {name: getattr(g, name) for name in SPLIT}  # the split's frames are None without J
    return SimpleNamespace(**{name: None if x is None else x.v[k] for name, x in frames.items()},
                           dims=g.dims, lam=g.lam[k])


def grad_ln_lambda(F, p):
    """(grad ln lambda, horizontal norm of grad lambda) of the batch of one at p."""
    g, k = entry(F, p)
    return g.grad_ln_lambda[k], g.horizontal_dilation[k]


def sff_identity_residuals(e, tol=DEFAULT_TOLERANCES):
    """(horizontal, vertical, mixed) residuals of the sff identities at the point `e = (group, k)`."""
    return tuple(r.residual_a for r in reports_at(check_sff_identities, e, tol))


def projector(g, name):
    """The jet of the metric-orthogonal projector onto the pass's frame `name` at the group's points."""
    return _projector(g.G, getattr(g, name))


def op(g, name):
    """x -> P J x as matrices: phi and omega split J on the vertical space, B and C on the horizontal one."""
    return {"phi": g.PV.v, "omega": projector(g, "jd2").v, "B": projector(g, "d2").v, "C": g.PMU.v}[name] @ g.J.v


def gnorm(e, v):
    g, k = e
    return float(row_norms(np.asarray(v, dtype=float), g.G.v[k]))


def coordinate_sff(F, p, X, Y):
    """(nabla dF)(X, Y) on the constant coordinate fields X, Y, assembled apart from the tables.

    Component values, Hessians and gradients come from `eval_jet2` on the
    batch of one, the target connection from the target metric jet at the
    image point, nabla_X Y from `fdtools.covariant_derivative`.
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
    g, k = entry(fmap(E33), p)
    jac = g.DF.v[k]
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    assert jac == pytest.approx(
        np.array([[0, 0, c, 0, -s, 0], [0, 0, s, 0, c, 0]]), abs=1e-15
    )


def test_jacobian_linear_projection_constant():
    g, k = entry(fmap("linproj42"), np.array([0.3, -0.4, 0.5, 0.9]))
    jac = g.DF.v[k]
    assert np.array_equal(jac, np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))


def test_jacobian_critical_point():
    F = SmoothMap(euclidean(2), euclidean(1), (parse("x1*x2", 2),))
    with pytest.raises(CriticalPointError):
        entry(F, np.zeros(2))


def test_split_frame_dilation_and_dims():
    sf = split(fmap(E33), e33_point(x3=math.log(2.0)))
    assert sf.lam == pytest.approx(2.0, rel=1e-12)
    assert sf.dims == (2, 2, 2, 0)
    # d1 spans the first coordinate pair, d2 the (4, 6) pair
    assert np.max(np.abs(sf.d1[:, 2:])) < 1e-12
    assert np.max(np.abs(sf.d2[:, [0, 1, 2, 4]])) < 1e-12


def test_split_frame_orthonormal_and_kernel():
    for g, k in entries(E33, count=4):
        frame = np.vstack([g.vertical.v[k], g.horizontal.v[k]])
        gram = frame @ g.G.v[k] @ frame.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-9
        for v in g.vertical.v[k]:
            assert np.linalg.norm(g.DF.v[k] @ v) < 1e-9
        assert g.conf_residual[k] < 1e-8 * g.lam[k]**2
        assert g.lam[k] == pytest.approx(math.exp(g.points[k, 2]), rel=1e-12)


def test_split_frame_invariant_projection():
    for e in entries(E33, count=4):
        g, k = e
        J = g.J.v[k]
        for u in g.d1.v[k]:
            w = J @ u - projector(g, "d1").v[k] @ (J @ u)
            assert gnorm(e, w) < 1e-9
        for w0 in g.d2.v[k]:
            assert gnorm(e, g.PV.v[k] @ (J @ w0)) < 1e-9


def test_split_frame_trivial_projection():
    sf = split(fmap("linproj42"), np.array([0.2, 0.1, -0.3, 0.8]))
    assert sf.lam == pytest.approx(1.0)
    assert sf.dims == (2, 0, 0, 2)


def test_split_frame_holomorphic_like():
    # both Jacobian rows have norm e^{x3} and are orthogonal; kernel is J-invariant
    F = fmap("holo4")
    p = np.array([0.4, -0.2, 0.35, 0.7])
    g, k = entry(F, p)
    jac = g.DF.v[k]
    assert np.linalg.norm(jac[0]) == pytest.approx(math.exp(p[2]), rel=1e-12)
    assert np.linalg.norm(jac[1]) == pytest.approx(math.exp(p[2]), rel=1e-12)
    assert abs(jac[0] @ jac[1]) < 1e-12
    assert g.lam[k] == pytest.approx(math.exp(p[2]), rel=1e-12)
    assert g.dims == (2, 0, 0, 2)
    assert np.max(np.abs(g.vertical.v[k][:, 2:])) < 1e-12  # ker spanned by the first pair


def test_split_frame_proper_semi_invariant():
    sf = split(fmap("linproj63"), np.full(6, 0.1))
    assert sf.dims == (2, 1, 1, 2)


def test_split_frame_ambiguous():
    F = SmoothMap(
        euclidean(4, with_j=True),
        euclidean(2),
        (parse("x1", 4), parse("(x2 + x3)*0.7071067811865476", 4)),
    )
    with pytest.raises(AmbiguousSplittingError):
        split(F, np.zeros(4))


# ---------------------------------------------------------------------------
# phi / omega / B / C


def test_phi_omega_invariant_direction():
    g, k = entry(fmap(E33), e33_point())
    e1 = np.eye(6)[0]
    assert op(g, "phi")[k] @ e1 == pytest.approx(np.eye(6)[1], abs=1e-12)  # J e1 = e2
    assert np.linalg.norm(op(g, "omega")[k] @ e1) < 1e-12


def test_phi_omega_anti_invariant_direction():
    g, k = entry(fmap(E33), e33_point())
    e4 = np.eye(6)[3]
    assert np.linalg.norm(op(g, "phi")[k] @ e4) < 1e-12
    assert op(g, "omega")[k] @ e4 == pytest.approx(g.J.v[k] @ e4, abs=1e-12)  # fully horizontal image


def test_omega_vanishes_on_d1():
    for g, k in entries(E33, count=3):
        for u in g.d1.v[k]:
            assert np.linalg.norm(op(g, "omega")[k] @ u) < 1e-12


def test_bc_decompose_on_jd2():
    for e in entries(E33, count=3):
        g, k = e
        for x in g.jd2.v[k]:
            assert np.linalg.norm(op(g, "C")[k] @ x) < 1e-10
            assert gnorm(e, op(g, "B")[k] @ x) == pytest.approx(1.0, abs=1e-10)


def test_bc_b_of_jw_is_minus_w():
    for g, k in entries(E33, count=3):
        for w in g.d2.v[k]:
            assert op(g, "B")[k] @ (g.J.v[k] @ w) == pytest.approx(-w, abs=1e-10)


def test_bc_trivial_when_d2_empty():
    g, k = entry(fmap("holo4"), np.array([0.1, 0.2, 0.0, 0.5]))
    for x in g.horizontal.v[k]:
        assert np.linalg.norm(op(g, "B")[k] @ x) < 1e-12
        assert op(g, "C")[k] @ x == pytest.approx(g.J.v[k] @ x, abs=1e-12)


def test_j_coherence():
    # phi(phi v) + B(omega v) = -v on the vertical space
    for e in entries(E33, count=3) + entries("linproj63", count=3):
        g, k = e
        for v in g.vertical.v[k]:
            res = op(g, "phi")[k] @ (op(g, "phi")[k] @ v) + op(g, "B")[k] @ (op(g, "omega")[k] @ v) + v
            assert gnorm(e, res) < 1e-9


def test_pushed_distributions_orthogonal():
    # dF(J d2) is g_N-orthogonal to dF(mu)
    for g, k in entries("linproj63", count=3):
        for w in g.d2.v[k]:
            for x in g.mu.v[k]:
                val = (g.DF.v[k] @ g.J.v[k] @ w) @ g.gN.v[k] @ (g.DF.v[k] @ x)
                assert abs(val) < 1e-8


# ---------------------------------------------------------------------------
# O'Neill tensors


def test_t_vanishes_on_affine_fibers():
    g, k = entry(fmap(E33), e33_point())
    for v in g.vertical.v[k]:
        for w in g.vertical.v[k]:
            assert np.linalg.norm(on_pairs(g.t[k], v, w)) < 1e-12


def test_t_ignores_horizontal_first_slot():
    g, k = entry(fmap(E33), e33_point())
    for x in g.horizontal.v[k]:
        out = on_pairs(g.t[k], x, np.array([1.0, -2.0, 0.5, 0.3, 0.1, 0.9]))
        assert np.linalg.norm(out) < 1e-12


def test_a_vanishes_for_linear_projection():
    F = fmap("linproj42")
    p = np.array([0.2, -0.1, 0.7, 0.4])
    for _ in range(5):
        e, f = np.random.default_rng(1).normal(size=(2, 4))
        assert np.linalg.norm(on_pairs(tensors(F, p).a, e, f)) < 1e-12


def test_a_alternation_against_bracket():
    # vertical part of A on horizontal frame pairs equals half the bracket here
    F = fmap(E33)
    p = e33_point()
    g, k = entry(F, p)
    X1, X2 = g.horizontal.v[k]
    H = g.horizontal
    br = brackets(H, H)[k, 0, 1]
    a12 = g.PV.v[k] @ on_pairs(g.a[k], X1, X2)
    assert a12 == pytest.approx(0.5 * (g.PV.v[k] @ br), abs=1e-9)


def test_tensor_skew_symmetry(rng):
    for name in (E33, "linproj63", "holo4"):
        g, k = entry(fmap(name), np.asarray(points(name, count=1)[0]))
        G = g.G.v[k]
        for _ in range(25):
            E, W, Z = rng.normal(size=(3, fmap(name).source.dim))
            V = g.PV.v[k] @ E
            X = g.PH.v[k] @ E
            T, A = g.t[k], g.a[k]
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
    vector, horizontal_norm = grad_ln_lambda(F, p)
    assert vector == pytest.approx(np.eye(6)[2], abs=1e-10)
    assert horizontal_norm > DEFAULT_TOLERANCES.theorem  # x3 is a horizontal direction here
    assert horizontal_norm == pytest.approx(math.exp(0.25), rel=1e-9)
    # cross-check against finite differences of the detected dilation
    fd = fd_gradient(lambda q: math.log(split(F, q).lam), p)
    assert vector == pytest.approx(fd, abs=1e-6)


def test_grad_ln_lambda_flat_cases():
    vector, horizontal_norm = grad_ln_lambda(fmap("linproj42"), np.array([0.3, 0.1, -0.5, 0.2]))
    assert np.linalg.norm(vector) < 1e-12
    assert horizontal_norm < 1e-12


def test_grad_ln_lambda_horizontal_case():
    vector, horizontal_norm = grad_ln_lambda(fmap("exp1"), np.zeros(2))
    assert vector == pytest.approx([1.0, 0.0], abs=1e-12)
    assert horizontal_norm == pytest.approx(1.0, abs=1e-12)  # lambda = 1, grad ln lambda = e1


# ---------------------------------------------------------------------------
# conformal sff identities


def test_sff_identities_on_conformal_presets():
    for name in (E33, "linproj42", "linproj63", "holo4", "exp1"):
        for p in points(name, count=4):
            rh, rv, rm = sff_identity_residuals(entry(fmap(name), np.asarray(p)))
            assert max(rh, rv, rm) < 1e-7, name


def test_sff_identity_horizontal_hand_value():
    # at the origin of the exponential machinery preset both sides equal one
    F = fmap("exp1")
    p = np.zeros(2)
    g, k = entry(F, p)
    e1 = np.array([1.0, 0.0])
    lhs = on_pairs(g.sff[k], e1, e1)
    vector, G, DF = g.grad_ln_lambda[k], g.G.v[k], g.DF.v[k]
    dln = float(e1 @ G @ vector)  # d ln(lambda) along e1
    rhs = 2.0 * dln * (DF @ e1) - float(e1 @ G @ e1) * (DF @ vector)
    assert lhs == pytest.approx([1.0], abs=1e-9)
    assert rhs == pytest.approx([1.0], abs=1e-9)


def test_covariant_phi_omega_structure_identities():
    # the covariant derivatives of phi and omega close through B, C and T
    for name in (E33, "linproj63"):
        for e in entries(name, count=3):
            g, k = e
            T = g.t[k]
            phi, omega, B, C = (op(g, name)[k] for name in ("phi", "omega", "B", "C"))
            PV, PH = g.PV.v[k], g.PH.v[k]
            # nabla of the fields phi(V_j) = P_V J V_j and omega(V_j) = P_JD2 J V_j
            nabla_phi = nabla(g.gamma_src, g.vertical @ (g.PV @ g.J).T)[k]
            nabla_omega = nabla(g.gamma_src, g.vertical @ (projector(g, "jd2") @ g.J).T)[k]
            for V in g.vertical.v[k]:
                for j, W in enumerate(g.vertical.v[k]):
                    TVW = on_pairs(T, V, W)
                    phi_W = phi @ W
                    om_W = omega @ W
                    hat_V_W = PV @ np.tensordot(V, g.nabla("vertical")[k], 1)[j]
                    hat_V_phiW = PV @ np.tensordot(V, nabla_phi, 1)[j]
                    lhs1 = hat_V_phiW - phi @ hat_V_W
                    rhs1 = B @ TVW - on_pairs(T, V, om_W)
                    assert gnorm(e, lhs1 - rhs1) < 1e-6
                    h_V_omW = PH @ np.tensordot(V, nabla_omega, 1)[j]
                    lhs2 = h_V_omW - omega @ hat_V_W
                    rhs2 = C @ TVW - on_pairs(T, V, phi_W)
                    assert gnorm(e, lhs2 - rhs2) < 1e-6


def test_adapted_tables_are_the_frames_and_operators_in_components():
    # E = [d1, d2, Jd2, mu] is G-orthonormal, the pass's frames, the J-split
    # operators and O'Neill's tensors are its components, and grad, push and
    # gram are grad ln lambda, dF and g_N on its rows
    for name in (E33, "linproj63", "holo4"):
        for g, k in entries(name, count=2):
            A = g.adapted
            E, G = A.E.v[k], g.G.v[k]
            D = len(E)
            assert np.allclose(E, np.concatenate([g.d1.v[k], g.d2.v[k], g.jd2.v[k], g.mu.v[k]]), atol=0)
            assert np.allclose(E @ G @ E.T, np.eye(D), atol=1e-12)
            assert np.allclose(A.V[k] @ E, g.vertical.v[k], atol=1e-12)
            assert np.allclose(A.H[k] @ E, g.horizontal.v[k], atol=1e-12)
            assert np.allclose(A.J[k], E @ g.J.v[k].T @ G @ E.T, atol=1e-12)
            assert np.allclose(A.J[k][A.d2, A.jd2], np.eye(g.dims[1]), atol=1e-12)  # Jd2 is J(d2)
            assert np.allclose(A.H[k] @ A.B[k] @ E, g.horizontal.v[k] @ op(g, "B")[k].T, atol=1e-12)
            assert np.allclose(A.H[k] @ A.C[k] @ E, g.horizontal.v[k] @ op(g, "C")[k].T, atol=1e-12)
            assert np.allclose(A.V[k] @ A.phi[k] @ E, g.vertical.v[k] @ op(g, "phi")[k].T, atol=1e-12)
            assert np.allclose(A.V[k] @ A.om[k] @ E, g.vertical.v[k] @ op(g, "omega")[k].T, atol=1e-12)
            # O'Neill's T and A as blocks of omega, against the projector route of the group's `t` and `a`
            for mine, theirs in ((A.T, g.t), (A.A, g.a)):
                want = np.einsum("kij,li,rj->lrk", theirs[k], E, E)
                assert np.allclose(mine[k] @ E, want, atol=1e-9)
            assert np.allclose(A.grad[k], g.grad_ln_lambda[k] @ G @ E.T, atol=1e-12)
            assert np.allclose(A.push[k], E @ g.DF.v[k].T, atol=1e-12)
            gram = np.zeros((D, D))
            gram[A.hor, A.hor] = g.lam[k] ** 2 * np.eye(len(g.DF.v[k]))  # dF kills the vertical block
            assert np.allclose(A.gram[k], gram, atol=1e-9)


def test_splitting_completeness():
    for name in (E33, "linproj63", "holo4"):
        for g, k in entries(name, count=2):
            assert np.max(np.abs(g.PV.v[k] + g.PH.v[k] - np.eye(fmap(name).source.dim))) < 1e-10


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
        g, k = entry(F, p)
        got = on_pairs(g.sff[k], e1, e1)
        want = fd_sff(F, p, ConstantField(e1), ConstantField(e1))
        assert got == pytest.approx([1.0], abs=1e-12)  # Gamma_N = 1 everywhere
        assert got == pytest.approx(want, abs=1e-6)
        # dilation tracks the composed target metric: lambda = e^{x1}
        assert g.lam[k] == pytest.approx(math.exp(p[0]), rel=1e-12)
        assert g.grad_ln_lambda[k] == pytest.approx([1.0, 0.0], abs=1e-10)
        rh, rv, rm = sff_identity_residuals((g, k), sc.tolerances)
        assert max(rh, rv, rm) < 1e-9


def test_fundamental_tensors_bundle():
    F = fmap(E33)
    p = e33_point()
    g, k = entry(F, p)
    assert tuple(g.points[k]) == tuple(p)
    assert np.linalg.norm(g.tension[k]) < 1e-7
    assert np.linalg.norm(g.fiber_mean_curvature[k]) < 1e-12
    v = np.eye(6)[0]
    assert np.linalg.norm(on_pairs(g.t[k], v, v)) < 1e-12
    pushed_t = g.DF.v[k] @ on_pairs(g.t[k], v, v)
    assert on_pairs(g.sff[k], v, v) == pytest.approx(-pushed_t, abs=1e-9)


def test_non_conformal_map_rejected():
    from confsub.errors import NotConformalError

    # anisotropic scaling: horizontal inner products are not a single multiple
    F = SmoothMap(euclidean(3), euclidean(2), (parse("x1", 3), parse("2*x2", 3)))
    with pytest.raises(NotConformalError, match="not horizontally conformal"):
        split(F, np.array([0.1, 0.2, 0.3]))


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
            split(diag_map(g11, g22), p)
        assert str(err.value).startswith("source metric not positive definite at (0.1, 0.2): eigs [")
    assert split(diag_map("1", "2e-12"), p).lam == 1.0
