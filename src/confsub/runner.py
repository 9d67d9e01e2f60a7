"""Suite runner: structure validation, Kaehler gate, checker dispatch, report assembly.

The frame pass and the Kaehler test run once over all sample points, in
groups of points that share a pass run (`SmoothMap.frame_pass`); the
pass validates J along with the frames, at its fixed thresholds.  The
structure rows are read off the groups, point by point in sample order, so
the first failing point is reported, with the error a single-point run
gives.  Each checker then runs once per group (`theorems._group_rows`), and
its rows are put back in sample order.

Exit code contract: 0 success, 2 scene error (raised before a report exists:
an unreadable or invalid scene, a tolerance that is not a finite number > 0,
or a map, metric or complex structure that leaves its domain, or a value of
the frame pass that overflows, at a sample point), 3 structural failure,
4 theorem disagreement, 5 hypothesis violations only.
Vacuous reports never count as disagreements: an equivalence with an empty
side carries no claim.
"""

from __future__ import annotations

from dataclasses import replace

from . import __version__
from .config import Tolerances
from .errors import EngineError, NumericalOverflowError, SceneError, StructureError
from .expr import ExprDomainError
from .report import RunReport, StructureRow
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

    The checker runs once per group (`members`: the indices of its points).
    """
    rows = []
    for members, group in groups:
        group_rows = _group_rows(check, group, tol)
        rows = rows or [[None] * count for _ in group_rows]
        for row, group_row in zip(rows, group_rows):
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
    hypothesis_ok: bool = False,
) -> RunReport:
    tol = tol if tol is not None else scene.tolerances
    count = scene.count if points is None else int(points)
    the_seed = scene.seed if seed is None else int(seed)
    sampled = sample_points(scene, count=count, seed=the_seed)
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
    dims_seen = set()
    for idx, (p, entry) in enumerate(zip(sampled, entries)):
        point = tuple(float(x) for x in p)
        if isinstance(entry, (ExprDomainError, NumericalOverflowError)):
            raise SceneError(f"{entry} at point {point}") from None
        if isinstance(entry, Exception):  # the point's own first error
            raise entry
        group, k = entry
        dims = kah = None
        if use_j:
            kah = float(group.kahler[2][k])
            dims = group.dims
            dims_seen.add(dims)
        report.structure.append(
            StructureRow(
                index=idx,
                point=point,
                lam=float(group.data.lam[k]),
                dims=dims,
                conformality_residual=float(group.data.conf_residual[k]),
                kahler_residual=kah,
            )
        )
    if use_j and len(dims_seen) > 1:
        raise StructureError(f"distribution dimensions vary across points: {sorted(dims_seen)}")

    kahler_ok = None
    if use_j:
        kahler_ok = all(
            row.kahler_residual is not None and row.kahler_residual < tol.kahler
            for row in report.structure
        )
        report.kahler_verified = kahler_ok
        if not kahler_ok and scene.kahler_expected:
            report.warnings.append(
                "kaehler structure expected but the parallelism residual exceeds tolerance; "
                "equivalence verdicts withheld"
            )

    if not structure_only:
        names = list(CHECKERS)
        if only:
            unknown = [n for n in only if n not in CHECKERS]
            if unknown:
                raise EngineError(f"unknown checkers: {', '.join(unknown)}")
            names = [n for n in names if n in only]
        for name in names:
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

    if report.disagreements():
        report.exit_code = EXIT_DISAGREE
    elif report.warnings and not hypothesis_ok:
        report.exit_code = EXIT_HYPOTHESIS
    else:
        report.exit_code = EXIT_OK
    return report
