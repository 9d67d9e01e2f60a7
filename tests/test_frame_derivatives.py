"""The derivative parts of the frame pass and the per-point tables against finite differences.

The verdict gate cannot see a transposed derivative axis when it leaves a
residual at rounding level, so every frame family, projector, the square
dilation and the source connection are compared directly with difference
quotients of their values, on every preset and bench scene.  The tables the
checkers contract (second fundamental form, O'Neill's T and A, covariant and
pullback derivatives of the frame families) are compared the same way: both
sides of a checker read the same tables, so this oracle is what checks them
independently.
"""

import numpy as np
import pytest

from confsub.expr import parse
from confsub.geometry import grid_jet
from confsub.jets import ArrayJet
from confsub.scenes import sample_points
from confsub.submersion import _gram_schmidt

from .conftest import SCENES_WITH_GENERIC as SCENES, fresh_scene
from .fdtools import (
    NABLA_FAMILIES,
    PULLBACK_FAMILIES,
    fd_jacobian,
    pass_derivative_margins,
    table_margins,
)

# difference quotients at h = 1e-5 carry ~1e-10 of truncation and rounding
# error here; an axis mix-up is of order one
MARGIN = 1e-7


@pytest.mark.parametrize("name", SCENES)
def test_pass_derivatives_match_finite_differences(name):
    sc = fresh_scene(name)
    entries, _ = sc.fmap.frame_pass(sample_points(sc, count=3, seed=5))
    for g, k in entries:
        p = g.points[k]
        margins = pass_derivative_margins(sc.fmap, g, k)
        assert {"vertical", "horizontal", "PV", "PH", "lambda_sq", "gamma_src"} <= set(margins)
        if sc.source.complex_structure is not None:
            assert {"d1", "d2", "jd2", "mu", "PD1", "PD2", "PJD2", "PMU"} <= set(margins)
        bad = {k: v for k, v in margins.items() if v > MARGIN}
        assert not bad, f"{name} at {tuple(p)}: {bad}"


@pytest.mark.parametrize("name", SCENES)
def test_tables_match_finite_differences(name):
    sc = fresh_scene(name)
    entries, _ = sc.fmap.frame_pass(sample_points(sc, count=3, seed=5))
    for g, k in entries:
        p = g.points[k]
        margins = table_margins(sc.fmap, g, k)
        assert {"sff", "T", "A", "nabla vertical", "nabla horizontal"} <= set(margins)
        if sc.source.complex_structure is not None:
            present = {f"nabla {n}" for n in NABLA_FAMILIES if g.family(n).v.shape[1]}
            present |= {f"pullback {n}" for n in PULLBACK_FAMILIES if g.family(n).v.shape[1]}
            assert present <= set(margins) and "pullback CH" in margins
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
    C = rng.normal(size=(2, 4))
    cases = [
        (A @ B, lambda q: fA(q, p) @ fB(q, p)),
        (C @ A, lambda q: C @ fA(q, p)),
        (A @ C.T[:3], lambda q: fA(q, p) @ C.T[:3]),
        (A - A @ B @ B.T, lambda q: fA(q, p) - fA(q, p) @ fB(q, p) @ fB(q, p).T),
    ]
    for jet, f in cases:
        assert np.allclose(jet.v[0], f(p))
        want = np.moveaxis(fd_jacobian(f, p), -1, 0)
        assert np.max(np.abs(jet.d[0] - want)) < 1e-8 * max(1.0, np.max(np.abs(want)))


def test_sliced_jets_keep_the_point_axis(rng):
    # 3 points of 3x3 matrices: with as many points as rows, a slice that lost
    # its point axis would broadcast into wrong derivatives without an error
    c = rng.uniform(0.1, 1.0, size=(3, 3, 3))
    grid = [[parse(f"{a}*x1*x2 + {b}*x3 + {e}*x1*x3", 3) for a, b, e in row] for row in c]
    j = grid_jet(grid, rng.uniform(-1.0, 1.0, size=(3, 3)))
    assert np.array_equal((j[0:3] @ j[0:3]).d, (j @ j).d)
    for idx in (slice(1, 3), np.array([2, 0])):
        part = j[idx]
        assert part.v.shape == (2, 3, 3) and part.d.shape == (2, 3, 3, 3)
        assert np.array_equal((part @ part).d, (j @ j).d[idx])
    with pytest.raises(TypeError):
        j[1]


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
