"""Suite runner: structure validation, Kaehler gate, checker dispatch, report assembly.

The frame pass and the Kaehler test run once over all sample points, in
groups of points that share a pass run (`SmoothMap.frame_pass`); the
pass validates J along with the frames, at its fixed thresholds.  The first
failing point in sample order is reported, with the error a single-point run
gives.  The structure table's columns are filled from the groups: each
group's dilation and residuals are scattered to its points (`members`), and
the Kaehler verdict is one reduction over the Kaehler column.  Each checker
then runs once per group (`theorems._group_rows`), and its rows are put back
in sample order, so report k of every row is at the point of structure row k;
a point-uniform group has one row, whose one report goes to all its points.

Exit code contract: 0 success, 2 scene error (raised in place of a report:
an unreadable or invalid scene, a tolerance that is not a finite number > 0,
an empty `only` or an unknown checker name in it, a sample count above
`scenes.MAX_POINTS`, or a map, metric or complex structure that leaves its
domain, or a value of the frame pass or a residual of a report row that is
not finite, at a sample point), 3 structural failure,
4 theorem disagreement, 5 hypothesis violations only: J fails the Kaehler
test, side b of every gated row is withheld and a warning says so; no
option turns that into 0.
Vacuous reports never count as disagreements: an equivalence with an empty
side carries no claim.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import __version__
from .config import Tolerances
from .errors import NumericalOverflowError, SceneError, StructureError
from .expr import ExprDomainError
from .report import RunReport, StructureTable
from .scenes import Scene, sample_points
from .theorems import CHECKERS, ConditionReport, _group_rows

__all__ = ["run", "EXIT_OK", "EXIT_SCENE", "EXIT_STRUCTURAL", "EXIT_DISAGREE", "EXIT_HYPOTHESIS"]

EXIT_OK = 0
EXIT_SCENE = 2
EXIT_STRUCTURAL = 3
EXIT_DISAGREE = 4
EXIT_HYPOTHESIS = 5


def _strip_verdict_b(r: ConditionReport, label: str) -> ConditionReport:
    return replace(r, residual_b=None, vacuous=False, label=label)


def _in_sample_order(check, groups, count: int, tol: Tolerances) -> list[list[ConditionReport]]:
    """The report rows of a checker at the `count` sample points, in sample order.

    The checker runs once per group (`members`: the indices of its points);
    the one report of a point-uniform group's row is every member's.
    """
    rows = []
    for members, group in groups:
        group_rows = _group_rows(check, group, tol)
        rows = rows or [[None] * count for _ in group_rows]
        for row, group_row in zip(rows, group_rows):
            if len(group_row) == 1:  # a point-uniform group: one report for all its points
                group_row = group_row * len(members)
            for q, r in zip(members.tolist(), group_row):
                row[q] = r
    return rows


def run(
    scene: Scene,
    points: int | None = None,
    seed: int | None = None,
    tol: Tolerances | None = None,
    only: list[str] | None = None,
    structure_only: bool = False,
) -> RunReport:
    tol = tol if tol is not None else scene.tolerances
    if only is not None and not only:
        raise SceneError("only names no checker")
    unknown = [n for n in only or () if n not in CHECKERS]
    if unknown:
        raise SceneError(f"unknown checkers: {', '.join(unknown)}")
    count = scene.count if points is None else int(points)
    the_seed = scene.seed if seed is None else int(seed)
    sampled = np.asarray(sample_points(scene, count=count, seed=the_seed), dtype=float)
    use_j = not scene.machinery_only

    report = RunReport(
        scene=scene.name,
        engine_version=__version__,
        seed=the_seed,
        count=count,
        theorem_tolerance=tol.theorem,
        machinery_only=scene.machinery_only,
        kahler_verified=None,
    )

    # structure pass: one frame pass and Kaehler test for all points
    entries, groups = scene.fmap.frame_pass(sampled)
    for p, entry in zip(sampled, entries):  # the first failing point in sample order
        if isinstance(entry, (ExprDomainError, NumericalOverflowError)):
            raise SceneError(f"{entry} at point {tuple(float(x) for x in p)}") from None
        if isinstance(entry, Exception):  # the point's own first error
            raise entry
    lam, conf = np.empty(len(entries)), np.empty(len(entries))
    kah, dims_seen = np.empty(len(entries)) if use_j else None, set()
    for members, group in groups:  # each group's values scattered to its points
        lam[members], conf[members] = group.lam, group.conf_residual
        if use_j:
            kah[members] = group.kahler
            dims_seen.add(group.dims)
    if use_j and len(dims_seen) > 1:
        raise StructureError(f"distribution dimensions vary across points: {sorted(dims_seen)}")
    report.structure = StructureTable(sampled, lam, conf, kah, dims_seen.pop() if use_j else None)

    kahler_ok = None
    if use_j:
        kahler_ok = bool(np.all(kah < tol.kahler))  # a NaN residual is not verified
        report.kahler_verified = kahler_ok
        if not kahler_ok:
            report.warnings.append(
                "kaehler structure expected but the parallelism residual exceeds tolerance; "
                "equivalence verdicts withheld"
            )

    if not structure_only:
        with np.errstate(all="ignore"):  # a residual that is not finite is the scene error below
            for name in [n for n in CHECKERS if not only or n in only]:
                spec = CHECKERS[name]
                if not use_j and spec.needs_j:
                    report.skipped.append((name, "no complex structure"))
                    continue
                gate_label = None
                if use_j and spec.kahler_gated and not kahler_ok:
                    gate_label = "hypothesis unmet: Kaehler parallelism residual above tolerance"
                for row in _in_sample_order(spec.func, groups, len(entries), tol):
                    if gate_label is not None:
                        row = [_strip_verdict_b(r, gate_label) for r in row]
                    report.reports[row[0].name] = row
        overflow = [(q, name) for name, row in report.reports.items() for q, r in enumerate(row)
                    if not math.isfinite(r.residual_a) or not math.isfinite(r.residual_b or 0.0)]
        if overflow:  # the first point in sample order, and its first row
            q, name = min(overflow, key=lambda x: x[0])
            raise SceneError(f"numerical overflow in {name} at point {report.structure[q].point}")

    if report.disagreements():
        report.exit_code = EXIT_DISAGREE
    elif report.warnings:
        report.exit_code = EXIT_HYPOTHESIS
    else:
        report.exit_code = EXIT_OK
    return report
