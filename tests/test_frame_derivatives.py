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
    for p in sample_points(sc, count=3, seed=5):
        margins = pass_derivative_margins(sc.fmap, p, sc.tolerances)
        assert {"vertical", "horizontal", "PV", "PH", "lambda_sq", "gamma_src"} <= set(margins)
        if sc.source.complex_structure is not None:
            assert {"d1", "d2", "jd2", "mu", "PD1", "PD2", "PJD2", "PMU"} <= set(margins)
        bad = {k: v for k, v in margins.items() if v > MARGIN}
        assert not bad, f"{name} at {tuple(p)}: {bad}"


@pytest.mark.parametrize("name", SCENES)
def test_tables_match_finite_differences(name):
    sc = fresh_scene(name)
    for p in sample_points(sc, count=3, seed=5):
        margins = table_margins(sc.fmap, p, sc.tolerances)
        assert {"sff", "T", "A", "nabla vertical", "nabla horizontal"} <= set(margins)
        if sc.source.complex_structure is not None:
            ctx = sc.fmap.context(p, sc.tolerances)
            present = {f"nabla {n}" for n in NABLA_FAMILIES if len(ctx.family(n).v)}
            present |= {f"pullback {n}" for n in PULLBACK_FAMILIES if len(ctx.family(n).v)}
            assert present <= set(margins) and "pullback CH" in margins
        bad = {k: v for k, v in margins.items() if v > MARGIN}
        assert not bad, f"{name} at {tuple(p)}: {bad}"


def _affine_jet(rng, shape, dim):
    """An array jet of q -> v + sum_l (q - p)_l d[l] with random v and d."""
    v = rng.normal(size=shape)
    d = rng.normal(size=(dim,) + shape)
    return ArrayJet(v, d), (lambda q, p: v + np.tensordot(np.asarray(q) - p, d, axes=1))


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
        assert np.allclose(jet.v, f(p))
        want = np.moveaxis(fd_jacobian(f, p), -1, 0)
        assert np.max(np.abs(jet.d - want)) < 1e-8 * max(1.0, np.max(np.abs(want)))


def test_gram_schmidt_derivatives_on_generic_input(rng):
    # a varying metric and seeds whose Gram matrix has varying off-diagonal
    # entries: the scenes' frames do not exercise every term of the formula;
    # three independent inputs run as one batch
    dim, p = 5, np.zeros(5)
    batched = lambda *jets: ArrayJet.stack(jets)
    cases = []
    for _ in range(3):
        R, fR = _affine_jet(rng, (dim, dim), dim)
        S, fS = _affine_jet(rng, (3, dim), dim)
        A0, fA0 = _affine_jet(rng, (2, dim), dim)

        def gs(q, fR=fR, fS=fS, fA0=fA0):
            r = fR(q, p)
            G = batched(ArrayJet.constant(r @ r.T + dim * np.eye(dim), dim))
            against = _gram_schmidt(G, batched(ArrayJet.constant(fA0(q, p), dim)), 1e-10)
            seeds = batched(ArrayJet.constant(fS(q, p), dim))
            return _gram_schmidt(G, seeds, 1e-10, against=against).v[0]

        # the middle seed repeats the first: it must be dropped at every nearby point
        seeds = ArrayJet(S.v[[0, 0, 1, 2]], S.d[:, [0, 0, 1, 2]])
        cases.append((R @ R.T + ArrayJet.constant(dim * np.eye(dim), dim), A0, seeds, gs))
    G = batched(*(c[0] for c in cases))
    against = _gram_schmidt(G, batched(*(c[1] for c in cases)), 1e-10)
    out = _gram_schmidt(G, batched(*(c[2] for c in cases)), 1e-10, against=against)
    for k, (_, _, _, gs) in enumerate(cases):
        got, Gq, against_q = out[k], G[k], against[k]
        assert got.v.shape == (3, dim)
        assert np.allclose(got.v @ Gq.v @ got.v.T, np.eye(3)) and np.allclose(got.v @ Gq.v @ against_q.v.T, 0.0)
        want = np.moveaxis(fd_jacobian(gs, p), -1, 0)
        assert np.max(np.abs(got.d - want)) < 1e-7 * max(1.0, np.max(np.abs(want)))
