"""The derivative parts of the frame pass and the per-point tables against finite differences.

The verdict gate cannot see a transposed derivative axis when it leaves a
residual at rounding level, so every frame, projector, the square
dilation and the source connection are compared directly with difference
quotients of their values, on every preset and bench scene.  The tables the
checkers contract (second fundamental form, O'Neill's T and A, the covariant
derivatives of the pass's frames that side a reads, and the adapted-frame
tables omega, dJ and the pullback table that side b reads) are compared the
same way: a table error that moves both sides of a checker together shows
in no verdict, so this oracle is what checks them independently.

Derivatives are built on first read: a structure-only run must build none
of the frame pass's, and a full check, which builds them outside the pass,
must raise no floating-point error.  Gram-Schmidt's value loop keeps no
inverse factor; replayed for a derivative, it must equal the one the loop
built before, bit for bit.
"""

import numpy as np
import pytest

from confsub import runner, submersion
from confsub.jets import ArrayJet, Zero
from confsub.scenes import sample_points
from confsub.submersion import _gram_schmidt, _inverse_factor, _orthonormal_rows
from confsub.theorems import CHECKERS, _group_rows

from .conftest import ALL_SCENE_NAMES, SCENES_WITH_GENERIC as SCENES, fresh_scene
from .fdtools import (
    ADAPTED,
    FRAMES,
    fd_jacobian,
    orthonormal_rows,
    pass_derivative_margins,
    table_margins,
)

# difference quotients at h = 1e-5 carry ~1e-10 of truncation and rounding
# error here; an axis mix-up is of order one
MARGIN = 1e-7


@pytest.mark.parametrize("name", SCENES)
def test_pass_derivatives_match_finite_differences(name):
    sc = fresh_scene(name)
    points = sample_points(sc, count=3, seed=5)
    entries, _ = sc.fmap.frame_pass(points)
    for p, (g, k) in zip(points, entries):
        margins = pass_derivative_margins(sc.fmap, p, g, k)
        assert {"vertical", "horizontal", "PV", "PH", "lambda_sq", "gamma_src"} <= set(margins)
        if sc.source.complex_structure is not None:
            assert {"d1", "d2", "jd2", "mu", "PMU"} <= set(margins)
        bad = {k: v for k, v in margins.items() if v > MARGIN}
        assert not bad, f"{name} at {tuple(p)}: {bad}"


@pytest.mark.parametrize("name", SCENES)
def test_tables_match_finite_differences(name):
    sc = fresh_scene(name)
    points = sample_points(sc, count=3, seed=5)
    entries, _ = sc.fmap.frame_pass(points)
    for p, (g, k) in zip(points, entries):
        margins = table_margins(sc.fmap, p, g, k)
        assert {"sff", "T", "A", "nabla vertical", "nabla horizontal"} <= set(margins)
        if sc.source.complex_structure is not None:
            present = {f"nabla {n}" for n in FRAMES if getattr(g, n).v.shape[1]}
            assert present | set(ADAPTED) <= set(margins)
        bad = {k: v for k, v in margins.items() if v > MARGIN}
        assert not bad, f"{name} at {tuple(p)}: {bad}"


def _affine_jet(rng, shape, dim):
    """The jet of q -> v + sum_l (q - p)_l d[l] with random v and d at one point (a batch of one)."""
    v = rng.normal(size=shape)
    d = rng.normal(size=(dim,) + shape)
    return ArrayJet(v[None], d[None]), (lambda q, p: v + np.tensordot(np.asarray(q) - p, d, axes=1))


def _cat(*jets):
    """The jets of several batches as one batch, in order."""
    return ArrayJet(np.concatenate([j.v for j in jets]), np.concatenate([j.d for j in jets]))


def test_array_jet_products_match_finite_differences(rng):
    dim, p = 3, np.zeros(3)
    A, fA = _affine_jet(rng, (4, 3), dim)
    B, fB = _affine_jet(rng, (3, 5), dim)
    cases = [
        (A @ B, lambda q: fA(q, p) @ fB(q, p)),
        (A - A @ B @ B.T, lambda q: fA(q, p) - fA(q, p) @ fB(q, p) @ fB(q, p).T),
    ]
    for jet, f in cases:
        assert np.allclose(jet.v[0], f(p))
        want = np.moveaxis(fd_jacobian(f, p), -1, 0)
        assert np.max(np.abs(jet.d[0] - want)) < 1e-8 * max(1.0, np.max(np.abs(want)))


def test_gram_schmidt_derivatives_on_generic_input(rng):
    # a varying metric and seeds whose Gram matrix has varying off-diagonal
    # entries: the scenes' frames do not exercise every term of the formula;
    # three independent inputs run as one batch
    dim, p = 5, np.zeros(5)
    cases = []
    for _ in range(3):
        R, fR = _affine_jet(rng, (dim, dim), dim)
        S, fS = _affine_jet(rng, (3, dim), dim)
        A0, fA0 = _affine_jet(rng, (2, dim), dim)

        def gs(q, fR=fR, fS=fS, fA0=fA0):
            r = fR(q, p)
            G = ArrayJet.constant((r @ r.T + dim * np.eye(dim))[None], dim)
            against = _gram_schmidt(G, ArrayJet.constant(fA0(q, p)[None], dim), 1e-10)
            seeds = ArrayJet.constant(fS(q, p)[None], dim)
            return _gram_schmidt(G, seeds, 1e-10, against=against).v[0]

        # the middle seed repeats the first: it must be dropped at every nearby point
        seeds = S.rows([0, 0, 1, 2])
        cases.append((R @ R.T + ArrayJet.constant(dim * np.eye(dim)[None], dim), A0, seeds, gs))
    G = _cat(*(c[0] for c in cases))
    against = _gram_schmidt(G, _cat(*(c[1] for c in cases)), 1e-10)
    out = _gram_schmidt(G, _cat(*(c[2] for c in cases)), 1e-10, against=against)
    for k, (_, _, _, gs) in enumerate(cases):
        got, Gq, against_q = out.v[k], G.v[k], against.v[k]
        assert got.shape == (3, dim)
        assert np.allclose(got @ Gq @ got.T, np.eye(3)) and np.allclose(got @ Gq @ against_q.T, 0.0)
        want = np.moveaxis(fd_jacobian(gs, p), -1, 0)
        assert np.max(np.abs(out.d[k] - want)) < 1e-7 * max(1.0, np.max(np.abs(want)))


def test_gram_schmidt_is_a_structural_zero_only_on_constant_inputs(rng):
    dim = 4
    R, _ = _affine_jet(rng, (dim, dim), dim)
    G = R @ R.T + ArrayJet.constant(dim * np.eye(dim)[None], dim)
    G0 = ArrayJet.constant(G.v, dim)  # the same values, not varying
    seeds, _ = _affine_jet(rng, (3, dim), dim)
    seeds0 = ArrayJet.constant(seeds.v, dim)
    against0 = _gram_schmidt(G0, ArrayJet.constant(rng.normal(size=(1, 1, dim)), dim), 1e-10)
    against = _gram_schmidt(G, ArrayJet.constant(against0.v, dim), 1e-10)  # equal values, varying
    assert against0.const and _gram_schmidt(G0, seeds0, 1e-10, against=against0).const
    for inputs in ((G, seeds0, against0), (G0, seeds, against0), (G0, seeds0, against)):
        out = _gram_schmidt(*inputs[:2], 1e-10, against=inputs[2])
        assert not out.const and out.d.any()


def _spd(rng, shape, dim):
    A = rng.normal(size=shape + (dim, dim))
    return A @ A.swapaxes(-1, -2) + dim * np.eye(dim)


def test_value_loop_and_replayed_factor_match_the_reference(rng):
    # the trimmed loop keeps no L^-1; replayed from its steps, L^-1 and the rows B must be
    # the in-loop reference's bit for bit, under one metric for all points and a metric per point
    N, k, dim = 7, 5, 6
    seeds = rng.normal(size=(N, k, dim))
    seeds[0, 0] = 0.0  # a zero seed, dropped first
    seeds[1, 2] = 0.5 * seeds[1, 0] - 2.0 * seeds[1, 1]  # dropped in the middle
    seeds[2, 4] = seeds[2, 1] + seeds[2, 3]  # dropped last
    seeds[3, 3] = seeds[3, 0]  # a copy of an earlier seed
    seeds[4, 2, 1] = np.nan  # fails its point
    seeds[5, 1, 0] = np.inf  # fails its point
    dropped = {(0, 0), (1, 2), (2, 4), (3, 3)}
    for Gv in (_spd(rng, (1,), dim), _spd(rng, (N,), dim)):
        with np.errstate(all="ignore"):  # as in the frame pass: a non-finite seed fails its point
            B, keep, finite, steps = _orthonormal_rows(Gv, seeds, 1e-10)
            want_B, want_Linv, want_keep, want_finite = orthonormal_rows(Gv, seeds, 1e-10)
        assert finite.tolist() == want_finite.tolist() == [True] * 4 + [False, False, True]
        Linv = _inverse_factor(steps)
        for q in np.flatnonzero(want_finite):  # a failed point's rows are never read
            assert B[q].tobytes() == want_B[q].tobytes()
            assert keep[q].tobytes() == want_keep[q].tobytes()
            assert Linv[q].tobytes() == want_Linv[q].tobytes()
            assert {(q, i) for i in range(k) if not keep[q, i]} == {d for d in dropped if d[0] == q}


@pytest.mark.parametrize("name, mode, replays", (
    ("example33", {"structure_only": True, "points": 128}, 0),  # reads no derivative
    ("linproj63", {}, 0),  # an affine map on constant metrics and J: every frame is a structural zero
    ("example33", {}, None),  # the checkers read the frames' derivatives
), ids=("example33-structure-only", "linproj63-full", "example33-full"))
def test_inverse_factor_is_replayed_only_for_a_derivative(monkeypatch, name, mode, replays):
    calls = []
    monkeypatch.setattr(submersion, "_inverse_factor", lambda steps: calls.append(1) or _inverse_factor(steps))
    assert runner.run(fresh_scene(name), seed=1, **mode).exit_code == 0
    assert len(calls) == replays if replays is not None else calls


def _zero_operands(rng):
    """A varying jet A (4x3) and structural zeros W (4x3) and Z (3x5), at 2 points along 3 coordinates."""
    A = _cat(*(_affine_jet(rng, (4, 3), 3)[0] for _ in range(2)))
    return A, ArrayJet.constant(rng.normal(size=(2, 4, 3)), 3), ArrayJet.constant(rng.normal(size=(2, 3, 5)), 3)


# rules with one structural-zero operand, then with structural zeros only
ONE_ZERO = {
    "A @ Z": lambda A, W, Z: A @ Z, "W.T @ A": lambda A, W, Z: W.T @ A,
    "A + W": lambda A, W, Z: A + W, "W + A": lambda A, W, Z: W + A,
    "A - W": lambda A, W, Z: A - W, "W - A": lambda A, W, Z: W - A,
    "(A + W).rows": lambda A, W, Z: (A + W).rows([3, 0]), "(W.T @ A).T": lambda A, W, Z: (W.T @ A).T,
}
ALL_ZERO = {
    "W @ Z": lambda A, W, Z: W @ Z, "W + W": lambda A, W, Z: W + W, "W - W": lambda A, W, Z: W - W,
    "-W": lambda A, W, Z: -W, "W.T": lambda A, W, Z: W.T, "W.rows": lambda A, W, Z: W.rows([3, 0]),
}


@pytest.mark.parametrize("rule", list(ONE_ZERO) + list(ALL_ZERO))
def test_structural_zeros_match_the_eager_product_rule(rng, rule):
    A, W, Z = _zero_operands(rng)
    f = {**ONE_ZERO, **ALL_ZERO}[rule]
    lazy = f(A, W, Z)
    eager = f(A, *(ArrayJet(x.v, np.zeros_like(x.d)) for x in (W, Z)))  # every term computed
    assert lazy.const == (rule in ALL_ZERO) and not eager.const
    assert lazy.v.tobytes() == eager.v.tobytes() and np.array_equal(lazy.d, eager.d)
    if rule in ONE_ZERO:  # bit for bit; an all-zero eager derivative may hold -0.0 (that of -W)
        assert lazy.d.tobytes() == eager.d.tobytes()


def test_structural_zero_derivatives_read_as_zeros(rng):
    _, W, Z = _zero_operands(rng)
    for jet in (W, Z, W @ Z, W.T, W - W, ArrayJet.constant(np.ones((2, 3)), 5)):
        dim = jet.d.shape[1]
        assert jet.const and type(jet.d) is Zero  # no array is built
        assert jet.d.shape == jet.v.shape[:1] + (dim,) + jet.v.shape[1:]
        assert not np.asarray(jet.d).any()


def test_a_plain_array_is_no_factor_of_a_jet(rng):
    # numpy defers to the jet, which has no reflected product: a plain factor must be made a jet
    A, _ = _affine_jet(rng, (4, 3), 3)
    with pytest.raises(TypeError):
        np.eye(2, 4) @ A


def test_derivatives_are_built_once(rng):
    A, _ = _affine_jet(rng, (4, 3), 3)
    B, _ = _affine_jet(rng, (3, 5), 3)
    for jet in (A @ B, (A @ B).T, A.rows([2, 0]), A + A, A - A, -A):
        assert jet.d is jet.d
    sc = fresh_scene("example33")
    _, ((_, g),) = sc.fmap.frame_pass(sample_points(sc, count=4, seed=1))
    assert g.Ginv.const  # G^-1 of the Euclidean metric is a structural zero
    for jet in (g.PMU, g.Ginv, g.lambda_sq, g.adapted.E, g.adapted._J):
        assert jet.d is jet.d


# every jet that the pass derives from its inputs: the frames, the projectors,
# G^-1 and the square dilation
DERIVED = ("vertical", "horizontal", "d1", "d2", "jd2", "mu",
           "PV", "PH", "PMU", "Ginv", "lambda_sq")


def test_structure_data_build_no_frame_derivative():
    sc = fresh_scene("example33")
    entries, groups = sc.fmap.frame_pass(sample_points(sc, count=16, seed=1))
    assert len(entries) == 16 and groups
    for _, g in groups:  # what a structure-only run reads
        g.kahler, g.dims, g.lam, g.conf_residual
        for name in DERIVED:
            jet = getattr(g, name)
            assert jet.v.size == 0 or callable(jet._d) or type(jet._d) is Zero, f"{name} derivative built"
        # the constant inputs are structural zeros, whose derivatives are `Zero`s, not arrays
        for name in ("G", "J", "gN", "Ginv"):
            jet = getattr(g, name)
            assert jet.const and type(jet._d) is Zero, f"{name} derivative built"
        g.t  # a checker's table reads them
        assert not callable(g.PV._d) and not callable(g.vertical._d)


def test_a_checker_that_reads_the_sff_builds_no_oneill_table():
    # d1_integrability reads the second fundamental form, through the adapted frame on side b,
    # and no O'Neill tensor: neither T nor A is built, nor the derivative of P_H they read
    sc = fresh_scene("example33")
    _, ((_, g),) = sc.fmap.frame_pass(sample_points(sc, count=8, seed=1))
    _group_rows(CHECKERS["d1_integrability"].func, g, sc.tolerances)
    assert "sff" in vars(g) and "S" in vars(g.adapted)
    assert not {"t", "a", "tension", "fiber_mean_curvature"} & vars(g).keys()
    assert not {"omega", "T", "A"} & vars(g.adapted).keys()
    assert callable(g.PH._d)


@pytest.mark.parametrize("name", ALL_SCENE_NAMES)
def test_full_check_raises_no_floating_point_error(name):
    # the derivatives are built by the Kaehler test and the checkers, after the
    # pass and outside its suppressed floating-point errors; the runner
    # suppresses them in its checker stage too (a residual that is not finite
    # is a scene error there), so the checkers run here on their own as well
    sc = fresh_scene(name)
    with np.errstate(all="raise"):
        _, groups = sc.fmap.frame_pass(sample_points(sc, count=sc.count, seed=sc.seed))
        for _, g in groups:
            g.kahler
            for spec in CHECKERS.values():
                if g.J is not None or not spec.needs_j:
                    _group_rows(spec.func, g, sc.tolerances)
        report = runner.run(fresh_scene(name))
    assert report.reports and report.structure
