"""Metamorphic relations: a change of the scene whose effect the paper fixes in advance.

Relation (b): an isometry of the Euclidean target, F -> R F + b, leaves the
dilation, the split and every condition of the paper unchanged, since they
read dF only through g_N(dF X, dF Y) and the Hessian only through g_N-inner
products with dF.  The map is composed with a fixed rotation in the (F1, F2)
plane and a translation, written as expression trees, and each sample point
must keep its dims, its dilation and every verdict, with residuals moved by
rounding only.
"""

import dataclasses
import math

import pytest

from confsub.expr import BinOp, Const
from confsub.geometry import euclidean_metric
from confsub.runner import run

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
