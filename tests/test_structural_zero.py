"""Constant metrics and J carry no derivative: structural zeros change no number.

A grid of constant entries is a structural zero (`jets.ArrayJet.constant`):
it is evaluated by no expression, its connection is zero without arithmetic,
and the Kaehler test of a constant J on it reads 0.  Written as expressions in
the coordinates (`1 + 0*x1`, `0*x1`), the same grids take the evaluated path,
and every canonical report must stay the same byte for byte.  So must a
scene file whose constants are written as expressions of constants only
(`0 - 1`, `2*0.5`, `1 + 0`): those are evaluated too, once for every point.
"""

import dataclasses

import numpy as np
import pytest

from confsub.expr import BinOp, Const, Var
from confsub.geometry import _levi_civita, nabla_j_norm
from confsub.jets import ArrayJet, Zero
from confsub.report import to_canonical
from confsub.runner import run
from confsub.scenes import PRESETS, load_scene_text, sample_points

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
    assert g.G.const and g.J.const and g.gN.const and g.Ginv.const
    assert not (h.G.const or h.J.const or h.gN.const or h.Ginv.const)
    want = to_canonical(run(forced, seed=seed, structure_only=structure_only))
    assert to_canonical(run(plain, seed=seed, structure_only=structure_only)) == want


@pytest.mark.parametrize("name", CONSTANT_SCENES)
def test_kahler_test_of_a_constant_j_is_the_full_test(name):
    sc = fresh_scene(name)
    _, groups = sc.fmap.frame_pass(sample_points(sc, count=8, seed=3))
    for _, g in groups:
        G, J = g.G, g.J
        assert G.const and J.const
        evaluated = ArrayJet(G.v, np.asarray(G.d)), ArrayJet(J.v, np.asarray(J.d))  # zero arrays: every term computed
        for metric, cs in ((G, J), evaluated):
            assert g.kahler.tobytes() == nabla_j_norm(G.v, cs, _levi_civita(metric)).tobytes()
        assert type(_levi_civita(G)) is Zero
        assert np.asarray(_levi_civita(G)).tobytes() == _levi_civita(evaluated[0]).tobytes()


@pytest.mark.parametrize("name", VARYING_SCENES)
def test_varying_metrics_are_never_structural_zeros(name):
    sc = fresh_scene(name)
    _, groups = sc.fmap.frame_pass(sample_points(sc, count=6, seed=2))
    constant_target = all(isinstance(e, Const) for row in sc.target.metric for e in row)
    for _, g in groups:
        assert not (g.G.const or g.Ginv.const)
        assert g.gN.const == constant_target


def _diagonal(dim, entry):
    return "\n".join(f"g {i} {i} = {entry}" for i in range(1, dim + 1))


# (preset, its text with the constant entries written as expressions of constants)
WRITTEN_OUT = {
    "example33": PRESETS["example33"].replace("J = canonical", "\n".join(
        f"J {k} {k + 1} = 0 - 1\nJ {k + 1} {k} = 2 - 1" for k in (1, 3, 5))),
    "diag-x1sq": PRESETS["diag-x1sq"].replace("g 1 1 = 1", "g 1 1 = 2*0.5"),
    "linproj42": PRESETS["linproj42"].replace("dim = 4\nmetric = euclidean", "dim = 4\n" + _diagonal(4, "1 + 0"))
                                     .replace("dim = 2\nmetric = euclidean", "dim = 2\n" + _diagonal(2, "1 + 0")),
}


@pytest.mark.parametrize("count", (4, 24))
@pytest.mark.parametrize("name", WRITTEN_OUT)
def test_constants_written_as_expressions_give_the_literal_report(name, count):
    written = load_scene_text(WRITTEN_OUT[name], name_hint=name)
    assert written.fmap != fresh_scene(name).fmap
    want = to_canonical(run(fresh_scene(name), points=count, seed=1))
    assert to_canonical(run(written, points=count, seed=1)) == want


def test_a_constant_expression_is_widened_lazily_beside_varying_values():
    # J written out is evaluated, held once for every point, and widened to the group's points
    # by `ArrayJet.full`, whose derivative stays unbuilt until it is read
    sc = load_scene_text(WRITTEN_OUT["example33"], name_hint="example33")
    _, ((_, g),) = sc.fmap.frame_pass(sample_points(sc, count=4, seed=1))
    assert not g.J.const and g.J.v.shape == (4, 6, 6) and callable(g.J._d)
    assert not g.J.d.any() and g.J.d.shape == (4, 6, 6, 6)
