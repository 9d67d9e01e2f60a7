"""Constant metrics and J carry no derivative: structural zeros change no number.

A grid of constant entries is a structural zero (`jets.ArrayJet.constant`):
it is evaluated by no expression, its connection is zero without arithmetic,
and the Kaehler test of a constant J on it reads 0.  Written as expressions in
the coordinates (`1 + 0*x1`, `0*x1`), the same grids take the evaluated path,
and every canonical report must stay the same byte for byte.
"""

import dataclasses

import numpy as np
import pytest

from confsub.expr import BinOp, Const, Var
from confsub.geometry import _levi_civita, nabla_j_norm
from confsub.jets import ArrayJet
from confsub.report import to_canonical
from confsub.runner import run
from confsub.scenes import sample_points

from .conftest import fresh_scene

CONSTANT_SCENES = ("example33", "linproj63", "holo4", "twisted4", "anti-toy")
# non-constant source metrics; generic-metric's target metric varies too
VARYING_SCENES = ("conformal-surface", "diag-x1sq", "generic-hermitian", "generic-metric")


def _evaluated(grid):
    """The grid with each constant entry c written as `c + 0*x1` (0 as `0*x1`): equal values, evaluated."""
    if grid is None:
        return None
    zero = BinOp("*", Const(0.0), Var(0))
    return tuple(tuple(e if not isinstance(e, Const) else zero if e.value == 0.0 else BinOp("+", e, zero)
                       for e in row) for row in grid)


def _as_expressions(sc):
    """The scene with every metric and J entry an expression in the coordinates."""
    src, tgt = sc.source, sc.target
    fmap = dataclasses.replace(
        sc.fmap,
        source=dataclasses.replace(src, metric=_evaluated(src.metric),
                                   complex_structure=_evaluated(src.complex_structure)),
        target=dataclasses.replace(tgt, metric=_evaluated(tgt.metric)),
    )
    return dataclasses.replace(sc, fmap=fmap)


@pytest.mark.parametrize("structure_only", (False, True), ids=("full", "structure-only"))
@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("name", CONSTANT_SCENES)
def test_constant_entries_as_expressions_give_the_same_report(name, seed, structure_only):
    plain = fresh_scene(name)
    forced = _as_expressions(plain)
    (_, g), *_ = plain.fmap.frame_pass(sample_points(plain, count=2, seed=seed))[1]
    (_, h), *_ = forced.fmap.frame_pass(sample_points(forced, count=2, seed=seed))[1]
    assert g.data.G.const and g.data.J.const and g.data.gN.const and g.data.Ginv.const
    assert not (h.data.G.const or h.data.J.const or h.data.gN.const or h.data.Ginv.const)
    want = to_canonical(run(forced, seed=seed, structure_only=structure_only))
    assert to_canonical(run(plain, seed=seed, structure_only=structure_only)) == want


@pytest.mark.parametrize("name", CONSTANT_SCENES)
def test_kahler_test_of_a_constant_j_is_the_full_test(name):
    sc = fresh_scene(name)
    _, groups = sc.fmap.frame_pass(sample_points(sc, count=8, seed=3))
    for _, g in groups:
        G, J = g.data.G, g.data.J
        assert G.const and J.const
        evaluated = ArrayJet(G.v, G.d), ArrayJet(J.v, J.d)  # plain zero arrays: every term computed
        for metric, cs in ((G, J), evaluated):
            assert g.kahler.tobytes() == nabla_j_norm(G.v, cs, _levi_civita(metric)).tobytes()
        assert _levi_civita(G).tobytes() == _levi_civita(evaluated[0]).tobytes()


@pytest.mark.parametrize("name", VARYING_SCENES)
def test_varying_metrics_are_never_structural_zeros(name):
    sc = fresh_scene(name)
    _, groups = sc.fmap.frame_pass(sample_points(sc, count=6, seed=2))
    constant_target = all(isinstance(e, Const) for row in sc.target.metric for e in row)
    for _, g in groups:
        assert not (g.data.G.const or g.data.Ginv.const)
        assert g.data.gN.const == constant_target
