"""One frame pass over all sample points: each point of a batch against its batch of one.

`SmoothMap.frame_pass(points)` runs the frame pass over every point, and the
Kaehler test and the tables run once per group of the pass; a point is its
entry `(group, k)`.  Every number of a point's entry must be the same bit for
bit in a batch and in `frame_pass([p])`, failing points must keep their own
first error, and points whose Gram-Schmidt drops differ must run in separate
groups with the same results.
"""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from confsub import runner, submersion
from confsub.errors import (
    CriticalPointError,
    NonSPDMetricError,
    NumericalOverflowError,
    SceneError,
    StructureError,
)
from confsub.expr import ExprDomainError
from confsub.jets import ArrayJet, Zero
from confsub.report import to_canonical
from confsub.scenes import load_scene_text, sample_points
from confsub.theorems import CHECKERS, _memo_check

from .conftest import SCENES_WITH_GENERIC, entry, fresh_scene, reports_at
from .fdtools import FRAMES


def _same(a, b) -> bool:
    """Bitwise equality of the numbers in two results of the same shape."""
    if isinstance(a, ArrayJet):
        return _same(a.v, b.v) and _same(a.d, b.d)
    if isinstance(a, Zero) or isinstance(b, Zero):  # a structural zero on both sides, or on neither
        return type(a) is type(b) and a.shape == b.shape
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if hasattr(a, "__dataclass_fields__"):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return a == b


def _at(x, k):
    """Point k of a group's array or jet, keeping the point axis (None stays None)."""
    if isinstance(x, ArrayJet):
        return ArrayJet(x.v[[k]], x.d[[k]])
    return None if x is None else x[[k]]


# the tables of a group, besides the pass's fields: the second fundamental form, O'Neill's tensors,
# the tension and the mean curvature of the fibers, and what the checkers read of the connection and
# the dilation
TABLES = ("sff", "t", "a", "tension", "fiber_mean_curvature",
          "gamma_src", "grad_ln_lambda", "horizontal_dilation")
# every table of the adapted frame that side b reads
ADAPTED_TABLES = ("omega", "T", "A", "J", "dJ", "phi", "om", "B", "C", "S", "push", "gram", "pull", "grad",
                  "horizontal_dilation", "V", "H")


def assert_entries_equal(batched, single, fmap, tol, points=True):
    """Pass, Kaehler residuals, tables and checker reports of two entries agree bit for bit.

    `points=False` leaves out the point, for a point-uniform group: its one
    row holds its first member's point.
    """
    (g, k), (s, j) = batched, single
    use_j = fmap.source.complex_structure is not None
    for f in fields(g):
        if f.init and (points or f.name != "points"):  # the points and the pass's jets and values
            assert _same(_at(getattr(g, f.name), k), _at(getattr(s, f.name), j)), f.name
    if use_j:
        assert _same(_at(g.kahler, k), _at(s.kahler, j))
    for name in TABLES:
        assert _same(_at(getattr(g, name), k), _at(getattr(s, name), j)), name
    for name in FRAMES:
        if getattr(g, name) is not None:
            assert _same(_at(g.nabla(name), k), _at(s.nabla(name), j)), name
    if use_j:
        for name in ADAPTED_TABLES:
            assert _same(_at(getattr(g.adapted, name), k), _at(getattr(s.adapted, name), j)), name
    for spec in CHECKERS.values():
        if use_j or not spec.needs_j:
            assert _same(reports_at(spec.func, batched, tol), reports_at(spec.func, single, tol))


@pytest.mark.parametrize("name", SCENES_WITH_GENERIC)
def test_batch_equals_single(name):
    sc = fresh_scene(name)
    points = sample_points(sc, count=8, seed=3)
    entries, groups = sc.fmap.frame_pass(points)
    assert len(entries) == len(points)
    for p, e in zip(points, entries):
        assert_entries_equal(e, entry(sc.fmap, p), sc.fmap, sc.tolerances, points=len(e[0].points) > 1)
    for members, g in groups:  # N rows, or one point-uniform row that holds the first member's point
        assert np.array_equal(g.points, points[members if len(g.points) > 1 else members[:1]])


# F = x1 + x2^2: on x2 = 0 the gradient is parallel to e1, so the vertical
# Gram-Schmidt drops the seed e1 there and keeps it everywhere else
PARABOLA = """
name = parabola
[source]
dim = 2
metric = euclidean
[target]
dim = 1
metric = euclidean
[map]
F 1 = x1 + x2^2
[sampling]
box = -1 1, -1 1
"""


PARABOLA_POINTS = ((0.3, 0.5), (0.2, 0.0), (-0.4, -0.7), (0.6, 0.0))


def test_drop_pattern_groups():
    sc = load_scene_text(PARABOLA)
    points = [np.array(p) for p in PARABOLA_POINTS]
    entries, groups = sc.fmap.frame_pass(points)
    for p, e in zip(points, entries):
        assert_entries_equal(e, entry(sc.fmap, p), sc.fmap, sc.tolerances)
    # the two patterns ran as separate groups
    assert sorted(sorted(members.tolist()) for members, _ in groups) == [[0, 2], [1, 3]]
    g, k = entries[1]
    assert np.array_equal(np.abs(g.vertical.v[k, 0]), [0.0, 1.0])


def test_frame_pass_runs_the_pipeline_once_per_group(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return run_pipeline(*args)

    run_pipeline = submersion._run_pipeline
    monkeypatch.setattr(submersion, "_run_pipeline", counted)
    sc = load_scene_text(PARABOLA)
    # the first run meets the two drop patterns and restarts on each group
    entries, groups = sc.fmap.frame_pass([np.array(p) for p in PARABOLA_POINTS])
    assert len(groups) == 2 and len(calls) == 3
    for g, k in entries:  # reading the tables and the reports runs no further pass
        g.nabla("vertical")
        for name in TABLES:
            getattr(g, name)
        for spec in CHECKERS.values():
            if not spec.needs_j:
                reports_at(spec.func, (g, k), sc.tolerances)
    assert len(calls) == 3


def test_context_is_the_entry_of_the_batch_of_one():
    sc = load_scene_text(PARABOLA)
    for p in PARABOLA_POINTS:
        ctx = sc.fmap.context(np.array(p), sc.tolerances)
        assert_entries_equal(ctx.group, entry(sc.fmap, np.array(p)), sc.fmap, sc.tolerances)
        for spec in CHECKERS.values():
            if not spec.needs_j:
                assert _same(_memo_check(spec.func, ctx, sc.tolerances), reports_at(spec.func, ctx.group, sc.tolerances))


@pytest.mark.parametrize("name", ["holo4", "parabola"])
def test_context_split_reads_the_group(name):
    """`PointContext.split` holds the split's dims, the dilation and the conformality residual of the point's
    group at k, bit for bit (with J and without)."""
    sc = load_scene_text(PARABOLA) if name == "parabola" else fresh_scene(name)
    assert (sc.fmap.source.complex_structure is None) == (name == "parabola")
    for p in sample_points(sc, count=4, seed=3):
        ctx = sc.fmap.context(p, sc.tolerances)
        g, k = ctx.group
        split = ctx.split
        assert split.dims == g.dims
        assert np.float64(split.lam).tobytes() == g.lam[k].tobytes()
        assert np.float64(split.lambda_sq_residual).tobytes() == g.conf_residual[k].tobytes()


def _sample_interleaved_groups(monkeypatch):
    """Make the runner sample the parabola's points: two groups, interleaved in sample order."""
    points = [np.array(p) for p in PARABOLA_POINTS]
    monkeypatch.setattr(runner, "sample_points", lambda scene, count, seed: points)
    return points


def test_runner_rows_come_in_sample_order(monkeypatch):
    sc = load_scene_text(PARABOLA)
    points = _sample_interleaved_groups(monkeypatch)
    report = runner.run(sc)
    assert [row.point for row in report.structure] == list(PARABOLA_POINTS)
    for q, p in enumerate(points):
        single = entry(sc.fmap, p)
        g, k = single
        row = report.structure[q]
        assert (row.lam, row.conformality_residual) == (g.lam[k], g.conf_residual[k])
        want = [r for spec in CHECKERS.values() if not spec.needs_j
                for r in reports_at(spec.func, single, sc.tolerances)]
        assert [r.name for r in want] == list(report.reports)
        assert _same([report.reports[r.name][q] for r in want], want)
    # the writer's [structure] lines, scattered from the two groups, are those of single-point runs
    lines = to_canonical(report).splitlines()
    structure = lines[lines.index("[structure]") + 1:lines.index("[structure]") + 1 + len(points)]
    for q, p in enumerate(points):
        monkeypatch.setattr(runner, "sample_points", lambda scene, count, seed, p=p: [p])
        alone = to_canonical(runner.run(sc)).splitlines()
        assert alone[alone.index("[structure]") + 2].startswith("[")
        assert structure[q] == f"{q} | " + alone[alone.index("[structure]") + 1].removeprefix("0 | ")


def test_checkers_run_once_per_group(monkeypatch):
    """A full check runs each registered checker body once per group of the frame pass."""
    runs = dict.fromkeys(CHECKERS, 0)
    for name, spec in list(CHECKERS.items()):
        def counted(group, tol, body=spec.func, name=name):
            runs[name] += 1
            return body(group, tol)

        monkeypatch.setitem(CHECKERS, name, replace(spec, func=counted))

    # the parabola's four points run as two groups; it has no J
    with monkeypatch.context() as m:
        _sample_interleaved_groups(m)
        runner.run(load_scene_text(PARABOLA))
    assert runs == {name: 0 if spec.needs_j else 2 for name, spec in CHECKERS.items()}

    runs.update(dict.fromkeys(runs, 0))
    assert runner.run(fresh_scene("example33"), points=8).exit_code == 0
    assert runs == dict.fromkeys(CHECKERS, 1)


# x1^2 + x2^2 is critical at the origin; the logarithm leaves its domain below
# x2 = -1; the source metric diag(1, 2 + x1) is not positive definite below x1 = -2
THREE_FAILURES = PARABOLA.replace("F 1 = x1 + x2^2", "F 1 = x1^2 + x2^2 + 0*log(x2 + 1)").replace(
    "dim = 2\nmetric = euclidean", "dim = 2\ng 1 1 = 1\ng 2 2 = 2 + x1")
CRITICAL, OUTSIDE, INDEFINITE = (0.0, 0.0), (0.3, -2.0), (-3.0, 0.5)
KINDS = {CRITICAL: CriticalPointError, OUTSIDE: ExprDomainError, INDEFINITE: NonSPDMetricError}


@pytest.mark.parametrize("order", [(CRITICAL, OUTSIDE), (OUTSIDE, CRITICAL)], ids=["critical-first", "domain-first"])
def test_failing_points_keep_their_errors(monkeypatch, order):
    sc = load_scene_text(THREE_FAILURES)
    points = [np.array(p) for p in ((0.5, 0.5), *order, INDEFINITE, (0.2, 0.1))]
    entries, groups = sc.fmap.frame_pass(points)
    for p, e in zip(points, entries):
        if tuple(p) in KINDS:
            kind = KINDS[tuple(p)]
            assert type(e) is kind  # the entry is the point's error, and it has no group
            with pytest.raises(kind) as want:
                entry(sc.fmap, p)
            assert str(e) == str(want.value)
            with pytest.raises(kind):  # its batch of one has no tables either
                sc.fmap.context(p, sc.tolerances).group
        else:
            assert_entries_equal(e, entry(sc.fmap, p), sc.fmap, sc.tolerances)
    assert sorted(q for members, _ in groups for q in members.tolist()) == [0, 4]

    # the runner reports the earlier failing point, as a single-point run would
    monkeypatch.setattr(runner, "sample_points", lambda scene, count, seed: points)
    first = order[0]
    with pytest.raises(SceneError if first == OUTSIDE else CriticalPointError) as err:
        runner.run(sc)
    message = str(err.value)
    assert f"at {first}" in message or f"at point {first}" in message

    # a constant indefinite metric is held once for all 8 points and fails each with its own error
    indefinite = load_scene_text(PARABOLA.replace("metric = euclidean", "g 1 1 = 1\ng 2 2 = neg(1)", 1))
    points = sample_points(indefinite, count=8, seed=1)
    entries, groups = indefinite.fmap.frame_pass(points)
    assert not groups and len({str(e) for e in entries}) == 8
    for p, e in zip(points, entries):
        with pytest.raises(NonSPDMetricError) as want:
            entry(indefinite.fmap, p)
        assert type(e) is NonSPDMetricError and str(e) == str(want.value)


# J = (1 + x1^2) times the canonical J is a complex structure on x1 = 0 only, which
# the frame pass checks right after the metrics; F is critical at the origin
INVALID_J = PARABOLA.replace("metric = euclidean\n[target]", (
    "metric = euclidean\nJ 1 2 = 0 - (1 + x1^2)\nJ 2 1 = 1 + x1^2\n[target]")).replace(
    "F 1 = x1 + x2^2", "F 1 = x1^2 + x2^2")


@pytest.mark.parametrize("first", ["invalid-j", "critical"])
def test_runner_reports_the_first_failing_point(monkeypatch, first):
    # an invalid J and a failed frame pass are both point errors: the earlier point's is raised
    invalid_j, critical = (0.5, 0.3), (0.0, 0.0)
    order = (invalid_j, critical) if first == "invalid-j" else (critical, invalid_j)
    points = [np.array(p) for p in ((0.0, 0.5), *order)]
    monkeypatch.setattr(runner, "sample_points", lambda scene, count, seed: points)
    kind, at = (StructureError, invalid_j) if first == "invalid-j" else (CriticalPointError, critical)
    with pytest.raises(kind) as err:
        runner.run(load_scene_text(INVALID_J))
    assert type(err.value) is kind and f"at {at}" in str(err.value)
    if first == "invalid-j":
        assert str(err.value).startswith("complex structure invalid")


def test_invalid_j_fails_its_point_in_the_pass():
    sc = load_scene_text(INVALID_J)
    ctx = sc.fmap.context(np.array([0.5, 0.3]), sc.tolerances)
    for view in (lambda: ctx.split, lambda: ctx.group):  # the point has no group: no Kaehler test
        with pytest.raises(StructureError, match=r"^complex structure invalid at \(0\.5, 0\.3\): J\^2 residual"):
            view()


# |grad F|^2 ~ (700 exp(700 x2))^2 overflows near x2 = 1; with J the pass runs
# a stacked SVD, which one non-finite matrix would fail for every point
OVERFLOW = PARABOLA.replace("metric = euclidean\n[target]", "metric = euclidean\nJ = canonical\n[target]").replace(
    "F 1 = x1 + x2^2", "F 1 = x1 + exp(700*x2)")


def test_overflowing_point_leaves_the_batch():
    sc = load_scene_text(OVERFLOW)
    points = [np.array(p) for p in ((0.1, -0.5), (0.2, 0.95), (0.3, -0.8))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # non-finite values fail their point; numpy stays quiet
        entries, _ = sc.fmap.frame_pass(points)
        with pytest.raises(NumericalOverflowError, match="Gram-Schmidt squared norm"):
            sc.fmap.context(points[1], sc.tolerances).split
        assert type(entries[1]) is NumericalOverflowError and "Gram-Schmidt squared norm" in str(entries[1])
        for q in (0, 2):
            assert_entries_equal(entries[q], entry(sc.fmap, points[q]), sc.fmap, sc.tolerances)


# J = cos(t) I + sin(t) K with t = (pi/2) x1, where I is the canonical J and K
# anticommutes with it: the kernel of F = (x1, x2) is J-invariant at x1 = 0 and
# anti-invariant at x1 = 1
_C, _S = "cos(1.5707963267948966*x1)", "sin(1.5707963267948966*x1)"
ROTATING_J = f"""
name = rotating-j
[source]
dim = 4
metric = euclidean
J 2 1 = {_C}
J 3 1 = {_S}
J 1 2 = neg({_C})
J 4 2 = neg({_S})
J 4 3 = {_C}
J 1 3 = neg({_S})
J 3 4 = neg({_C})
J 2 4 = {_S}
[target]
dim = 2
metric = euclidean
[map]
F 1 = x1
F 2 = x2
[sampling]
box = -1 1, -1 1, -1 1, -1 1
"""


def test_runner_rejects_dimensions_that_vary_across_points(monkeypatch):
    sc = load_scene_text(ROTATING_J)
    points = [np.array(p) for p in ((0.0, 0.1, 0.2, 0.3), (1.0, 0.1, 0.2, 0.3))]
    entries, _ = sc.fmap.frame_pass(points)
    assert [g.dims for g, _ in entries] == [(2, 0, 0, 2), (0, 2, 2, 0)]
    monkeypatch.setattr(runner, "sample_points", lambda scene, count, seed: points)
    with pytest.raises(StructureError, match=r"^distribution dimensions vary across points: "
                                             r"\[\(0, 2, 2, 0\), \(2, 0, 0, 2\)\]$"):
        runner.run(sc)
