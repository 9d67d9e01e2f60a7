import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsub.errors import NonSPDMetricError, StructureError
from confsub.expr import Const, ExprDomainError, parse
from confsub.geometry import (
    ChartedManifold,
    ExcludedLocus,
    canonical_complex_structure,
    complex_structure_residuals,
    euclidean,
    grid_jet,
    nabla_j_residual,
)
from confsub.runner import run
from confsub.scenes import load_scene_text

from .conftest import ALL_SCENE_NAMES, fresh_scene
from .fdtools import (
    ConstantField,
    ExprField,
    christoffel_symbols,
    covariant_derivative,
    fd_christoffel,
    fd_nabla_j,
    lie_bracket,
    metric_jet,
)


def gamma_at(M, p):
    return christoffel_symbols(metric_jet(M, p), p)


def diag_metric(*texts):
    dim = len(texts)
    zero = Const(0.0)
    grid = [[zero] * dim for _ in range(dim)]
    for i, t in enumerate(texts):
        grid[i][i] = parse(t, dim)
    return tuple(tuple(row) for row in grid)


@pytest.fixture(scope="module")
def polar_like():
    # diag(1, x1^2) on x1 > 0
    return ChartedManifold(2, diag_metric("1", "x1^2"), None, ((0.5, 3.0), (-1.0, 1.0)))


@pytest.fixture(scope="module")
def conformal2():
    return ChartedManifold(
        2,
        diag_metric("exp(2*x1)", "exp(2*x1)"),
        canonical_complex_structure(2),
        ((-1.0, 1.0), (-1.0, 1.0)),
    )


def test_metric_euclidean_identity():
    M = euclidean(6)
    assert np.array_equal(metric_jet(M, np.zeros(6)).v[0], np.eye(6))


def test_metric_diag_evaluation(polar_like):
    G = metric_jet(polar_like, (2.0, 0.0)).v[0]
    assert G == pytest.approx(np.diag([1.0, 4.0]))


def test_metric_rejects_degenerate():
    M = ChartedManifold(2, diag_metric("x1", "1"), None, None)
    with pytest.raises(NonSPDMetricError):
        gamma_at(M, (-1.0, 0.0))


def test_grid_jet_outside_the_domain_raises_without_numpy_warnings():
    grid = [[parse("log(x1)", 2), parse("x2 / (x1 - x1)", 2)], [parse("1", 2), parse("exp(2000*x1)", 2)]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would escape as an error
        for p, message in [((-1.0, 0.0), "log"), ((0.0, 1.0), "log"), ((2.0, 1.0), "division by zero")]:
            with pytest.raises(ExprDomainError, match=message):
                grid_jet(grid, [(0.5, 0.5), p])
        with pytest.raises(ExprDomainError, match="overflow"):
            grid_jet([[parse("exp(2000*x1)", 2)]], [(1.0, 0.0)])


def test_christoffel_flat_zero():
    gamma = gamma_at(euclidean(4), np.zeros(4))
    assert np.max(np.abs(gamma)) == 0.0


def test_christoffel_polar_like(polar_like):
    p = (2.0, 0.0)
    gamma = gamma_at(polar_like, p)
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -2.0  # radial coefficient of the angular pair
    expected[1, 0, 1] = expected[1, 1, 0] = 0.5
    assert gamma == pytest.approx(expected, abs=1e-12)
    assert gamma == pytest.approx(fd_christoffel(polar_like, p), abs=1e-7)


def test_christoffel_conformal_plane(conformal2):
    p = (0.0, 0.0)
    gamma = gamma_at(conformal2, p)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = 1.0
    expected[0, 1, 1] = -1.0
    expected[1, 0, 1] = expected[1, 1, 0] = 1.0
    assert gamma == pytest.approx(expected, abs=1e-12)
    assert gamma == pytest.approx(fd_christoffel(conformal2, p), abs=1e-7)


def test_christoffel_matches_fd_at_random_points(polar_like, conformal2, rng):
    for M, lo, hi in ((polar_like, (0.6, -0.9), (2.8, 0.9)), (conformal2, (-0.9, -0.9), (0.9, 0.9))):
        for _ in range(5):
            p = rng.uniform(lo, hi)
            got = gamma_at(M, p)
            want = fd_christoffel(M, p)
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) / scale < 1e-5


def test_covariant_derivative_constant_flat():
    M = euclidean(3)
    out = covariant_derivative(M, ConstantField([1.0, 2.0, 3.0]), [0.5, 0.5, 0.0], np.zeros(3))
    assert out == pytest.approx(np.zeros(3))


def test_covariant_derivative_rotation_field():
    M = euclidean(2)
    Y = ExprField.from_strings(["x2", "0 - x1"], 2)
    out = covariant_derivative(M, Y, [1.0, 0.0], (1.0, 1.0))
    assert out == pytest.approx([0.0, -1.0])


def test_covariant_derivative_uses_connection(polar_like):
    out = covariant_derivative(polar_like, ConstantField([0.0, 1.0]), [1.0, 0.0], (2.0, 0.0))
    assert out == pytest.approx([0.0, 0.5])


def test_lie_bracket_coordinates_commute():
    out = lie_bracket(ConstantField([1.0, 0.0]), ConstantField([0.0, 1.0]), (0.3, 0.4))
    assert out == pytest.approx(np.zeros(2))


def test_lie_bracket_example():
    X = ConstantField([1.0, 0.0])
    Y = ExprField.from_strings(["0", "x1"], 2)
    assert lie_bracket(X, Y, (0.7, -0.2)) == pytest.approx([0.0, 1.0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_lie_bracket_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-2, 2, size=(2, 2, 3))

    def term(c, mono):
        return f"- {abs(c)}{mono}" if c < 0 else f"+ {abs(c)}{mono}"

    def poly_field(c):
        return ExprField.from_strings(
            [f"0 {term(c[k][0], '')} {term(c[k][1], '*x1')} {term(c[k][2], '*x2*x2')}" for k in range(2)],
            2,
        )

    X, Y = poly_field(coeffs[0]), poly_field(coeffs[1])
    p = rng.uniform(-1, 1, size=2)
    assert lie_bracket(X, Y, p) + lie_bracket(Y, X, p) == pytest.approx(np.zeros(2), abs=1e-12)


def test_torsion_free_cross_check(polar_like, rng):
    # nabla_X Y - nabla_Y X = [X, Y] for expression fields
    X = ExprField.from_strings(["x2 + 1", "x1*x2"], 2)
    Y = ExprField.from_strings(["x1", "2 - x2"], 2)
    for _ in range(5):
        p = rng.uniform((0.7, -0.8), (2.5, 0.8))
        lhs = covariant_derivative(polar_like, Y, X.values_at(p), p) - covariant_derivative(
            polar_like, X, Y.values_at(p), p
        )
        assert lhs == pytest.approx(lie_bracket(X, Y, p), abs=1e-9)


def test_metric_compatibility(polar_like, rng):
    # X g(Y,Z) = g(nabla_X Y, Z) + g(Y, nabla_X Z)
    Y = ExprField.from_strings(["x2", "x1"], 2)
    Z = ExprField.from_strings(["1", "x1*x1"], 2)
    h = 1e-6
    for _ in range(5):
        p = rng.uniform((0.8, -0.7), (2.4, 0.7))
        Xv = rng.uniform(-1, 1, size=2)

        def gyz(q):
            G = metric_jet(polar_like, q).v[0]
            return float(Y.values_at(q) @ G @ Z.values_at(q))

        lhs = (gyz(p + h * Xv) - gyz(p - h * Xv)) / (2 * h)
        G = metric_jet(polar_like, p).v[0]
        rhs = float(covariant_derivative(polar_like, Y, Xv, p) @ G @ Z.values_at(p)) + float(
            Y.values_at(p) @ G @ covariant_derivative(polar_like, Z, Xv, p)
        )
        # the finite-difference side carries its own noise at this magnitude
        assert lhs == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(rhs)))


def test_kahler_residual_flat():
    assert nabla_j_residual(euclidean(6, with_j=True), np.zeros(6)) < 1e-12
    assert nabla_j_residual(euclidean(4, with_j=True), np.ones(4) * 0.3) < 1e-12


def test_kahler_residual_conformal_surface(conformal2):
    # any Hermitian metric on a surface is Kaehler
    for p in ((0.0, 0.0), (0.4, -0.6)):
        assert nabla_j_residual(conformal2, p) < 1e-12


def test_kahler_residual_detects_non_kahler():
    # conformal factor in four dimensions is Hermitian but not parallel
    M = ChartedManifold(
        4,
        diag_metric("exp(2*x1)", "exp(2*x1)", "exp(2*x1)", "exp(2*x1)"),
        canonical_complex_structure(4),
        None,
    )
    r2, rc = complex_structure_residuals(M, (0.1, 0.2, -0.3, 0.4))
    assert r2 < 1e-12 and rc < 1e-12
    assert nabla_j_residual(M, (0.1, 0.2, -0.3, 0.4)) > 1e-2


def test_missing_j_raises():
    with pytest.raises(StructureError):
        nabla_j_residual(euclidean(4), np.zeros(4))


def test_excluded_locus_distance():
    loc = ExcludedLocus("mod", 4, math.pi / 2)
    assert loc.distance(np.array([0, 0, 0, 0, math.pi / 2, 0])) < 1e-12
    assert loc.distance(np.array([0, 0, 0, 0, math.pi / 4, 0])) == pytest.approx(math.pi / 4)
    eq = ExcludedLocus("eq", 0, 2.0)
    assert eq.distance(np.array([1.5, 0.0])) == pytest.approx(0.5)


def test_manifold_contains():
    M = euclidean(2, box=[(-1, 1), (-1, 1)], excluded=[ExcludedLocus("eq", 0, 0.0)])
    assert M.contains((0.5, 0.5))
    assert not M.contains((1.5, 0.0))
    assert not M.contains((0.0005, 0.0))


def test_christoffel_exact_lower_symmetry(polar_like):
    gamma = gamma_at(polar_like, (1.3, 0.4))
    assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


def test_runner_kahler_residual_matches_geometry():
    # the runner reuses the point's jets; the standalone function re-evaluates
    # them, and both must print the same report value
    checked = 0
    for name in ALL_SCENE_NAMES:
        sc = fresh_scene(name)
        if sc.source.complex_structure is None or sc.machinery_only:
            continue
        for row in run(sc, points=4, structure_only=True).structure:
            assert row.kahler_residual == nabla_j_residual(sc.source, row.point), name
            checked += 1
    assert checked >= 20


# Kaehler-test scenes for the finite-difference oracle: the conformal plane and
# the flat canonical J are Kaehler, the conformal factor in four dimensions is not
KAHLER_SCENES = {
    "conformal2": ("dim = 2\ng 1 1 = exp(2*x1)\ng 2 2 = exp(2*x1)\nJ = canonical", "x2", 2),
    "flat4": ("dim = 4\nmetric = euclidean\nJ = canonical", "x3", 4),
    "flat6": ("dim = 6\nmetric = euclidean\nJ = canonical", "x3", 6),
    "non-kahler4": ("dim = 4\n" + "\n".join(f"g {i} {i} = exp(2*x1)" for i in range(1, 5))
                    + "\nJ = canonical", "x3", 4),
}


@pytest.mark.parametrize("name", KAHLER_SCENES)
def test_runner_kahler_residual_matches_finite_differences(name):
    # an oracle apart from `nabla_j_norm`, which the runner and `nabla_j_residual` share
    source, component, dim = KAHLER_SCENES[name]
    sc = load_scene_text(
        f"name = {name}\n[source]\n{source}\n[target]\ndim = 1\nmetric = euclidean\n"
        f"[map]\nF 1 = {component}\n[sampling]\nbox = " + ", ".join(["-0.9 0.9"] * dim) + "\n"
    )
    rows = run(sc, points=4, structure_only=True).structure
    assert len(rows) == 4
    for row in rows:
        want = fd_nabla_j(sc.source, row.point)
        assert row.kahler_residual == pytest.approx(want, rel=1e-6, abs=1e-8), (name, row.point)
        if name == "non-kahler4":
            assert row.kahler_residual > 1e-2
        else:
            assert row.kahler_residual < 1e-12
