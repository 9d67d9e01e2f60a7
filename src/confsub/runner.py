"""Suite runner: structure validation, Kaehler gate, checker dispatch, report assembly.

The frame pass and the Kaehler test run once over all sample points
(`SmoothMap.contexts`); the runner then reads the points in sample order, so
the first failing point is reported, with the error a single-point run
gives.

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
from .theorems import CHECKERS, ConditionReport, _memo_check

__all__ = ["run", "EXIT_OK", "EXIT_SCENE", "EXIT_STRUCTURAL", "EXIT_DISAGREE", "EXIT_HYPOTHESIS"]

EXIT_OK = 0
EXIT_SCENE = 2
EXIT_STRUCTURAL = 3
EXIT_DISAGREE = 4
EXIT_HYPOTHESIS = 5


def _strip_verdict_b(r: ConditionReport, label: str) -> ConditionReport:
    return replace(
        r,
        residual_b=None,
        verdict_b="inconclusive",
        agree=True,
        vacuous=False,
        label=label,
    )


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
    fmap = scene.fmap
    use_j = fmap.source.complex_structure is not None  # None on machinery-only scenes

    report = RunReport(
        scene=scene.name,
        engine_version=__version__,
        seed=the_seed,
        count=count,
        theorem_tolerance=tol.theorem,
        machinery_only=not use_j,
        kahler_verified=None,
    )

    # structure pass
    contexts = fmap.contexts(sampled, tol)  # one frame pass and Kaehler test for all points
    dims_seen = set()
    for idx, (p, ctx) in enumerate(zip(sampled, contexts)):
        try:
            split = ctx.split  # the point's own first error, if it has one
        except (ExprDomainError, NumericalOverflowError) as err:
            raise SceneError(f"{err} at point {tuple(float(x) for x in p)}") from None
        kah = None
        if use_j:
            r_sq, r_compat, kah = ctx.kahler_residuals()
            if r_sq > tol.structural or r_compat > tol.structural:
                raise StructureError(
                    f"complex structure invalid at {tuple(float(x) for x in p)}: "
                    f"J^2 residual {r_sq:.3e}, compatibility residual {r_compat:.3e}"
                )
        dims = split.dims if use_j else None
        if use_j:
            dims_seen.add(dims)
        report.structure.append(
            StructureRow(
                index=idx,
                point=tuple(float(x) for x in p),
                lam=split.lam,
                dims=dims,
                conformality_residual=split.lambda_sq_residual,
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
            for ctx in contexts:
                for r in _memo_check(spec.func, ctx, tol):
                    if gate_label is not None:
                        r = _strip_verdict_b(r, gate_label)
                    report.reports.setdefault(r.name, []).append(r)

    if report.disagreements():
        report.exit_code = EXIT_DISAGREE
    elif report.warnings and not hypothesis_ok:
        report.exit_code = EXIT_HYPOTHESIS
    else:
        report.exit_code = EXIT_OK
    return report
