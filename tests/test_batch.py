"""One frame pass over all sample points: batched contexts against single-point ones.

`SmoothMap.contexts(points)` runs the frame pass and the Kaehler test once
over every point; `SmoothMap.context(p)` is the batch of one.  Every number a
point context exposes must be the same bit for bit either way, failing points
must keep their own first error, and points whose Gram-Schmidt drops differ
must run in separate groups with the same results.
"""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from confsub import runner, submersion, theorems
from confsub.errors import (
    CriticalPointError,
    NonSPDMetricError,
    NumericalOverflowError,
    SceneError,
    StructureError,
)
from confsub.expr import ExprDomainError
from confsub.jets import ArrayJet
from confsub.scenes import load_scene_text, sample_points
from confsub.submersion import _frame_groups
from confsub.theorems import CHECKERS, _memo_check

from .conftest import SCENES_WITH_GENERIC, fresh_scene
from .fdtools import NABLA_FAMILIES, PULLBACK_FAMILIES


def _same(a, b) -> bool:
    """Bitwise equality of the numbers in two results of the same shape."""
    if isinstance(a, ArrayJet):
        return _same(a.v, b.v) and _same(a.d, b.d)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if hasattr(a, "__dataclass_fields__"):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return a == b


def assert_contexts_equal(batched, single):
    """Pass, split, Kaehler residuals, tables and checker reports agree bit for bit."""
    tol, use_j = single.tol, single.fmap.source.complex_structure is not None
    assert _same(batched.data, single.data)
    assert _same(batched.split, single.split)
    if use_j:
        assert batched.kahler_residuals() == single.kahler_residuals()
    assert _same(batched.gamma_src, single.gamma_src)
    assert _same(batched.tensors, single.tensors)
    for name in NABLA_FAMILIES:
        assert _same(batched.nabla(name), single.nabla(name)), name
    for name in PULLBACK_FAMILIES:
        assert _same(batched.pullback(name), single.pullback(name)), name
    for spec in CHECKERS.values():
        if use_j or not spec.needs_j:
            assert _same(_memo_check(spec.func, batched, tol), _memo_check(spec.func, single, tol))


@pytest.mark.parametrize("name", SCENES_WITH_GENERIC)
def test_batch_equals_single(name):
    sc = fresh_scene(name)
    points = sample_points(sc, count=8, seed=3)
    batch = sc.fmap.contexts(points, sc.tolerances)
    assert len(batch) == len(points)
    for p, ctx in zip(points, batch):
        assert_contexts_equal(ctx, sc.fmap.context(p, sc.tolerances))


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
    batch = sc.fmap.contexts(points, sc.tolerances)
    for p, ctx in zip(points, batch):
        assert_contexts_equal(ctx, sc.fmap.context(p, sc.tolerances))
    # the two patterns ran as separate groups
    _, groups = _frame_groups(sc.fmap, points)
    assert sorted(sorted(members.tolist()) for members, _ in groups) == [[0, 2], [1, 3]]
    assert np.array_equal(np.abs(batch[1].split.vertical[0]), [0.0, 1.0])


def test_contexts_run_the_frame_pass_once_when_called(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _frame_groups(*args)

    monkeypatch.setattr(submersion, "_frame_groups", counted)
    sc = load_scene_text(PARABOLA)
    batch = sc.fmap.contexts([np.array(p) for p in PARABOLA_POINTS], sc.tolerances)
    assert len(calls) == 1
    for ctx in batch:  # reading the views runs no further pass
        ctx.split, ctx.data, ctx.tensors, ctx.nabla("vertical")
        for spec in CHECKERS.values():
            if not spec.needs_j:
                _memo_check(spec.func, ctx, sc.tolerances)
    assert len(calls) == 1


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
        single = sc.fmap.context(p, sc.tolerances)
        row = report.structure[q]
        assert (row.lam, row.conformality_residual) == (single.split.lam, single.split.lambda_sq_residual)
        want = [r for spec in CHECKERS.values() if not spec.needs_j
                for r in _memo_check(spec.func, single, sc.tolerances)]
        assert [r.name for r in want] == list(report.reports)
        assert _same([report.reports[r.name][q] for r in want], want)


def test_checkers_run_once_per_group(monkeypatch):
    """A full check runs each registered checker body once per group of the frame pass."""
    runs = dict.fromkeys(CHECKERS, 0)
    for name, spec in list(CHECKERS.items()):
        def counted(group, tol, body=spec.func, name=name):
            runs[name] += 1
            return body(group, tol)

        monkeypatch.setitem(CHECKERS, name, replace(spec, func=counted))
        # product_structures reads the rows of other checkers through their module names
        monkeypatch.setattr(theorems, spec.func.__name__, counted)

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
    batch = sc.fmap.contexts(points, sc.tolerances)
    for p, ctx in zip(points, batch):
        single = sc.fmap.context(p, sc.tolerances)
        if tuple(p) in KINDS:
            kind = KINDS[tuple(p)]
            with pytest.raises(kind) as got:
                ctx.split
            with pytest.raises(kind) as want:
                single.split
            assert str(got.value) == str(want.value)
            with pytest.raises(kind):  # the table views raise the pass error too
                ctx.gamma_src
        else:
            assert_contexts_equal(ctx, single)

    # the runner reports the earlier failing point, as a single-point run would
    monkeypatch.setattr(runner, "sample_points", lambda scene, count, seed: points)
    first = order[0]
    with pytest.raises(SceneError if first == OUTSIDE else CriticalPointError) as err:
        runner.run(sc)
    message = str(err.value)
    assert f"at {first}" in message or f"at point {first}" in message


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
    for view in (lambda: ctx.split, ctx.kahler_residuals):
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
        batch = sc.fmap.contexts(points, sc.tolerances)
        with pytest.raises(NumericalOverflowError, match="Gram-Schmidt squared norm"):
            batch[1].split
        for q in (0, 2):
            assert_contexts_equal(batch[q], sc.fmap.context(points[q], sc.tolerances))
