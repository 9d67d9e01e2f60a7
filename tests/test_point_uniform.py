"""Values the same at every point are held once: point-uniform arrays change no number.

When the metrics, J and the differential do not vary, the frame pass holds them,
and everything it derives from them alone, with a point axis of length 1, and
such a run leaves the pass as a group of one row that all its points read at
k = 0: its tables, checkers and report rows run once.  With the term `0*x1*x2`
added to each map component, the gradients and Hessians vary, the same numbers
take the per-point path, and every canonical report must stay the same byte
for byte.
"""

import dataclasses

import pytest

from confsub import theorems
from confsub.expr import BinOp, Const, Var
from confsub.report import to_canonical
from confsub.runner import run
from confsub.scenes import sample_points
from confsub.theorems import CHECKERS

from .conftest import fresh_scene

# affine maps (a constant differential) and maps with a varying one
UNIFORM_SCENES = ("linproj42", "linproj63", "anti-toy", "example33", "twisted4")
# every jet of the pass that a constant differential leaves constant
PASS_JETS = ("G", "Ginv", "J", "DF", "gN", "vertical", "horizontal", "d1", "d2", "jd2", "mu",
             "PV", "PH", "PMU", "lambda_sq")


def _varying(sc):
    """The scene with each map component F written as `F + 0*x1*x2`: equal numbers, varying derivatives."""
    zero = BinOp("*", BinOp("*", Const(0.0), Var(0)), Var(1))
    fmap = dataclasses.replace(sc.fmap, components=tuple(BinOp("+", c, zero) for c in sc.fmap.components))
    return dataclasses.replace(sc, fmap=fmap)


@pytest.mark.parametrize("mode", ({}, {"points": 64}, {"structure_only": True, "points": 128}),
                         ids=("full", "full-64", "structure-only"))
@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("name", UNIFORM_SCENES)
def test_varying_map_terms_give_the_same_report(name, seed, mode):
    plain = fresh_scene(name)
    want = to_canonical(run(_varying(plain), seed=seed, **mode))
    assert to_canonical(run(plain, seed=seed, **mode)) == want


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
        monkeypatch.setattr(theorems, spec.func.__name__, check)
        monkeypatch.setitem(CHECKERS, name, dataclasses.replace(spec, func=check))
    rep = run(fresh_scene("linproj63"), points=64, seed=1)
    assert rep.exit_code == 0 and rep.count == len(rep.structure) == 64
    assert rows_seen == {name: [1] for name in CHECKERS}
    for rows in rep.reports.values():
        assert len(rows) == 64 and all(r is rows[0] for r in rows)
