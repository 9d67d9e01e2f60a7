"""Metamorphic relations: a change of the scene whose effect the paper fixes in advance.

Relation (b): an isometry of the Euclidean target, F -> R F + b, leaves the
dilation, the split and every condition of the paper unchanged, since they
read dF only through g_N(dF X, dF Y) and the Hessian only through g_N-inner
products with dF.  The map is composed with a fixed rotation in the (F1, F2)
plane and a translation, written as expression trees, and each sample point
must keep its dims, its dilation and every verdict, with residuals moved by
rounding only.

Relation (a): relabelling the source's complex coordinate pairs, pair k of
(x1, x2), (x3, x4), ... taking the place of pair k - 1 (cyclically), leaves
the Euclidean metric and the canonical J unchanged.  The map's expression trees
are rewritten on the relabelled coordinates and the points' columns moved to
match, so the relabelled map at the moved point is the map at the point, and
each point must keep its dims, its dilation, every residual and every verdict
of every checker.
"""

import dataclasses
import math

import numpy as np
import pytest

from confsub.expr import BinOp, Call, Const, Pow, Var
from confsub.geometry import canonical_complex_structure, euclidean_metric
from confsub.runner import run
from confsub.scenes import sample_points
from confsub.theorems import CHECKERS, _group_rows

from .conftest import fresh_scene

ANGLE, SHIFT = 0.7, (1.25, -0.5, 3.0)
# the bound on a change of the dilation (relative) and of a residual (relative to max(1, |residual|)):
# the rotation mixes terms at a few ulps each; at 32 points, seed 3, the largest change is 1.2e-15
RESIDUAL_BOUND = 1e-13


def _moved(sc):
    """The scene with its map composed with a rotation by ANGLE in the (F1, F2) plane and a shift."""
    c, s = Const(math.cos(ANGLE)), Const(math.sin(ANGLE))
    F = sc.fmap.components
    rotated = (BinOp("-", BinOp("*", c, F[0]), BinOp("*", s, F[1])),
               BinOp("+", BinOp("*", s, F[0]), BinOp("*", c, F[1]))) + F[2:]
    moved = tuple(BinOp("+", f, Const(b)) for f, b in zip(rotated, SHIFT))
    return dataclasses.replace(sc, fmap=dataclasses.replace(sc.fmap, components=moved))


def _close(x, y) -> bool:
    return x is None and y is None or abs(x - y) <= RESIDUAL_BOUND * max(1.0, abs(x))


# linproj63 is point-uniform (a constant differential stays constant under R F + b); the others vary
@pytest.mark.parametrize("name", ("linproj63", "example33", "holo4"))
def test_a_target_isometry_keeps_every_verdict(name):
    sc = fresh_scene(name)
    assert sc.fmap.target.metric == euclidean_metric(sc.fmap.target.dim)
    plain, moved = run(sc, points=32, seed=3), run(_moved(sc), points=32, seed=3)
    assert plain.exit_code == moved.exit_code == 0
    for p, m in zip(plain.structure, moved.structure, strict=True):
        assert p.point == m.point and p.dims == m.dims
        assert abs(p.lam - m.lam) <= RESIDUAL_BOUND * p.lam
        assert _close(p.conformality_residual, m.conformality_residual)
        assert p.kahler_residual == m.kahler_residual  # the source alone
    assert plain.reports.keys() == moved.reports.keys()
    for row, reports in plain.reports.items():
        for k, (p, m) in enumerate(zip(reports, moved.reports[row], strict=True)):
            assert (p.verdict_a, p.verdict_b, p.agree, p.vacuous, p.label) == \
                   (m.verdict_a, m.verdict_b, m.agree, m.vacuous, m.label), (row, k)
            assert _close(p.residual_a, m.residual_a) and _close(p.residual_b, m.residual_b), (row, k, p, m)


def _relabelled(e, new):
    """The expression e with each coordinate x_i read as x_new[i]."""
    if isinstance(e, Var):
        return Var(new[e.index])
    if isinstance(e, BinOp):
        return BinOp(e.op, _relabelled(e.left, new), _relabelled(e.right, new))
    if isinstance(e, Pow):
        return Pow(_relabelled(e.base, new), e.exponent)
    if isinstance(e, Call):
        return Call(e.func, _relabelled(e.arg, new))
    return e  # a Const


def _checked(fmap, points, tol):
    """Per point its dims, dilation and reports by row name, through the frame pass and each checker."""
    entries, _ = fmap.frame_pass(points)
    out = []
    for g, k in entries:
        reports = {row[k].name: row[k] for spec in CHECKERS.values() for row in _group_rows(spec.func, g, tol)}
        out.append((g.dims, g.lam[k], reports))
    return out


# the relabelling moves no residual of the first three by even one rounding (16 points, seed 1);
# twisted4's frames turn with its coordinates, and 12 row sides move by up to 1.41x, with no verdict
# flipped: the frame dependence of a largest component (`theorems._amax`), ROADMAP item 4
TWISTED4 = pytest.param("twisted4", marks=pytest.mark.xfail(
    strict=True, reason="_amax reads the largest component in the pass's frame (ROADMAP item 4)"))


@pytest.mark.parametrize("name", ("example33", "holo4", "linproj63", TWISTED4))
def test_relabelled_complex_pairs_keep_every_residual(name):
    sc = fresh_scene(name)
    dim = sc.source.dim
    assert sc.source.metric == euclidean_metric(dim)
    assert sc.source.complex_structure == canonical_complex_structure(dim)
    new = [2 * ((i // 2 - 1) % (dim // 2)) + i % 2 for i in range(dim)]
    moved = dataclasses.replace(sc.fmap, components=tuple(_relabelled(f, new) for f in sc.fmap.components))
    x = sample_points(sc, count=16, seed=1)
    y = np.empty_like(x)
    y[:, new] = x
    plain, relabelled = _checked(sc.fmap, x, sc.tolerances), _checked(moved, y, sc.tolerances)
    for q, ((dims, lam, reports), (dims2, lam2, reports2)) in enumerate(zip(plain, relabelled, strict=True)):
        assert dims == dims2 and abs(lam - lam2) <= RESIDUAL_BOUND * lam, q
        assert reports.keys() == reports2.keys()
        for row, p in reports.items():
            m = reports2[row]
            assert (p.verdict_a, p.verdict_b, p.agree, p.vacuous, p.label) == \
                   (m.verdict_a, m.verdict_b, m.agree, m.vacuous, m.label), (row, q)
            assert _close(p.residual_a, m.residual_a) and _close(p.residual_b, m.residual_b), (row, q, p, m)
