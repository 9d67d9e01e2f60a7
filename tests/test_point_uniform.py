"""Values the same at every point are held once: point-uniform arrays change no number.

When the metrics, J and the differential do not vary, the frame pass holds them,
and everything it derives from them alone, with a point axis of length 1, and
such a run leaves the pass as a group of one row that all its points read at
k = 0: its tables, checkers and report rows run once.  With the term `0*x1*x2`
added to each map component, the gradients are stacks of N points, the same
numbers take the per-point path, and every canonical report must stay the same
byte for byte.

An affine map's Hessians are exactly zero, so its differential is a structural
zero (`jets.ArrayJet.constant`), and so is every frame, projector and square
dilation built from it and constant metrics and J alone.  With that one
decision turned off, every product-rule term is computed, and again every
canonical report must stay the same byte for byte.
"""

import dataclasses

import pytest

from confsub import submersion
from confsub.expr import BinOp, Const, Var
from confsub.report import to_canonical
from confsub.runner import run
from confsub.scenes import sample_points
from confsub.theorems import CHECKERS

from .conftest import fresh_scene

# affine maps (a constant differential) and maps with a varying one
AFFINE_SCENES = ("linproj42", "linproj63", "anti-toy")
UNIFORM_SCENES = AFFINE_SCENES + ("example33", "twisted4")
# every jet of the pass that a constant differential leaves constant
PASS_JETS = ("G", "Ginv", "J", "DF", "gN", "vertical", "horizontal", "d1", "d2", "jd2", "mu",
             "PV", "PH", "PMU", "lambda_sq")


def _varying(sc):
    """The scene with each map component F written as `F + 0*x1*x2`: equal numbers, varying derivatives."""
    zero = BinOp("*", BinOp("*", Const(0.0), Var(0)), Var(1))
    fmap = dataclasses.replace(sc.fmap, components=tuple(BinOp("+", c, zero) for c in sc.fmap.components))
    return dataclasses.replace(sc, fmap=fmap)


MODES = pytest.mark.parametrize("mode", ({}, {"points": 64}, {"structure_only": True, "points": 128}),
                                 ids=("full", "full-64", "structure-only"))


@MODES
@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("name", UNIFORM_SCENES)
def test_varying_map_terms_give_the_same_report(name, seed, mode):
    plain = fresh_scene(name)
    want = to_canonical(run(_varying(plain), seed=seed, **mode))
    assert to_canonical(run(plain, seed=seed, **mode)) == want


@MODES
@pytest.mark.parametrize("rewrite", (None, _varying), ids=("plain", "varying"))
@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("name", AFFINE_SCENES)
def test_evaluated_differential_gives_the_same_report(monkeypatch, name, seed, rewrite, mode):
    plain = fresh_scene(name)
    want = to_canonical(run(plain, seed=seed, **mode))
    monkeypatch.setattr(submersion, "_affine", lambda hessians: False)  # every product-rule term computed
    sc = plain if rewrite is None else rewrite(plain)
    (_, g), = sc.fmap.frame_pass(sample_points(sc, count=4, seed=seed))[1]
    assert not any(getattr(g, n).const for n in ("DF", "vertical", "horizontal", "PV", "PH", "lambda_sq"))
    assert to_canonical(run(sc, seed=seed, **mode)) == want


@pytest.mark.parametrize("name", AFFINE_SCENES)
def test_an_affine_map_on_constant_inputs_is_a_structural_zero(name):
    sc = fresh_scene(name)
    (_, g), = sc.fmap.frame_pass(sample_points(sc, count=8, seed=1))[1]
    for n in PASS_JETS:  # no dB, no L^-1 and no product-rule term is ever built
        assert getattr(g, n).const, n


def test_a_constant_differential_leaves_varying_inputs_varying():
    # example33: a varying differential; conformal-surface: F 1 = x1, affine over a varying metric
    for name, affine in (("example33", False), ("conformal-surface", True)):
        sc = fresh_scene(name)
        (_, g), = sc.fmap.frame_pass(sample_points(sc, count=8, seed=1))[1]
        assert g.DF.const == affine and g.G.const != affine, name
        for n in PASS_JETS[5:]:  # the frames, projectors and square dilation
            assert not getattr(g, n).const, (name, n)


def test_a_constant_differential_is_computed_once():
    sc = fresh_scene("linproj63")
    points = sample_points(sc, count=16, seed=1)
    entries, ((members, g),) = sc.fmap.frame_pass(points)
    for name in PASS_JETS:  # one row, computed once
        jet = getattr(g, name)
        assert len(jet.v) == len(jet.d) == 1, name
    assert len(g.lam) == len(g.conf_residual) == len(g.points) == 1
    assert members.tolist() == list(range(16))
    assert all(e[0] is g and e[1] == 0 for e in entries)
    (_, h), = _varying(sc).fmap.frame_pass(points)[1]
    assert len(h.points) == len(h.G.v) == len(h.DF.v) == len(h.vertical.v) == len(h.lam) == 16
    assert h.G.v.strides[0] == 0  # the metric is still constant: a view that repeats one row
    assert h.DF.v.strides[0] != 0 and h.vertical.v.strides[0] != 0


def test_a_uniform_scene_runs_each_checker_once(monkeypatch):
    # every checker body, also one whose rows product_structures reads, runs once, on a group of
    # one row, and each report row is one object at all 64 points
    rows_seen = {}

    def counted(spec):
        def check(g, tol):
            rows_seen.setdefault(spec.name, []).append(len(g.points))
            return spec.func(g, tol)
        return check

    for name, spec in list(CHECKERS.items()):
        check = counted(spec)
        monkeypatch.setitem(CHECKERS, name, dataclasses.replace(spec, func=check))
    rep = run(fresh_scene("linproj63"), points=64, seed=1)
    assert rep.exit_code == 0 and rep.count == len(rep.structure) == 64
    assert rows_seen == {name: [1] for name in CHECKERS}
    for rows in rep.reports.values():
        assert len(rows) == 64 and all(r is rows[0] for r in rows)
