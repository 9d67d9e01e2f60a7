"""Outside-in layer timing: a traced replica of `confsub.runner.run`.

`traced_check` repeats the steps of `runner.run` (plus the CLI's parse and
render) and times each call into a layer's public entry point:

1. `load_scene_text`                         -> scenes.parse
2. `sample_points`                           -> scenes.sample
3. `fmap.context` and `.comp_jets`           -> submersion.comp_jets
4. `.fdata`, then `.split`                   -> submersion.fdata, submersion.split
5. `complex_structure_residuals` and
   `nabla_j_residual`                        -> geometry.kahler
6. `.jdata`, forced before the first checker -> submersion.jdata
7. each checker in registry order, through
   the runner's `_memo_check`                -> theorems.<checker>
8. `to_canonical` and `render_table`         -> report.canonical, report.table

Lazy sub-results are charged to the first step that touches them.  During
steps 6 and 7 `Jet2.__mul__` calls are counted and the point-context cache
entries those steps add are counted.  On a structure-only check steps 6 and 7
find no work: their spans are still entered, so they read the cost of an
empty span and their counts read 0.

The replica returns the canonical text, which the caller compares with the
untraced CLI output of the same check (the traced-run guard).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from confsub import __version__, expr
from confsub.errors import EngineError, SceneError, StructureError
from confsub.geometry import complex_structure_residuals, nabla_j_residual
from confsub.report import RunReport, StructureRow, render_table, to_canonical
from confsub.runner import EXIT_DISAGREE, EXIT_HYPOTHESIS, EXIT_OK, _strip_verdict_b
from confsub.scenes import PRESETS, load_scene_text, sample_points
from confsub.theorems import CHECKERS, _memo_check

LAYER_SPANS = (
    "scenes.parse",
    "scenes.sample",
    "submersion.comp_jets",
    "submersion.fdata",
    "submersion.split",
    "geometry.kahler",
    "submersion.jdata",
    *(f"theorems.{name}" for name in CHECKERS),
    "report.canonical",
    "report.table",
)


class Tracer:
    """Span durations (seconds) and counts, summed over the traced checks."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)

    @contextmanager
    def span(self, name):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += perf_counter() - t0

    @contextmanager
    def counting_jet2_mul(self):
        """Count `Jet2.__mul__` calls by wrapping the public class."""
        jet2 = getattr(expr, "Jet2", None)
        if jet2 is None:
            yield
            return
        original = jet2.__mul__
        counter = [0]

        def mul(self, other):
            counter[0] += 1
            return original(self, other)

        jet2.__mul__ = mul
        try:
            yield
        finally:
            jet2.__mul__ = original
            self.counts["expr.jet2_mul"] += counter[0]


def scene_text(scene_arg: str) -> tuple[str, str]:
    """The text and name hint the CLI would parse for a preset name or file path."""
    if scene_arg in PRESETS:
        return PRESETS[scene_arg], scene_arg
    return Path(scene_arg).read_text(encoding="utf-8"), Path(scene_arg).stem


def _cache_size(obj) -> int:
    return len(getattr(obj, "_cache", ()))


def _touch(ctx, stage: str):
    # a stage the point context does not expose is skipped; its cost then
    # lands on the next step that needs it
    getattr(ctx, stage, None)


def traced_check(tr: Tracer, scene_arg: str, seed: int, points: int | None,
                 structure_only: bool) -> str | None:
    """Run one check step by step; the canonical report, or None where the CLI prints nothing."""
    with tr.span("scenes.parse"):
        text, hint = scene_text(scene_arg)
        try:
            scene = load_scene_text(text, name_hint=hint)
        except SceneError:
            return None
    if _cache_size(scene.fmap):
        raise AssertionError(f"freshly parsed scene {scene.name!r} has a non-empty point cache")
    try:
        report = _traced_run(tr, scene, seed, points, structure_only)
    except (SceneError, EngineError):
        return None
    with tr.span("report.canonical"):
        canonical = to_canonical(report)
    with tr.span("report.table"):
        render_table(report)
    tr.counts["trace.checks"] += 1
    tr.counts["scenes.points"] += report.count
    for reps in report.reports.values():
        for r in reps:
            tr.counts["theorems.rows"] += 1
            tr.counts["theorems.vacuous_rows"] += r.vacuous
            tr.counts["theorems.nontrivial_rows"] += bool(r.residual_a) or bool(r.residual_b)
    return canonical


def _traced_run(tr: Tracer, scene, seed: int, points: int | None,
                structure_only: bool) -> RunReport:
    tol = scene.tolerances
    count = scene.count if points is None else int(points)
    with tr.span("scenes.sample"):
        sampled = sample_points(scene, count=count, seed=seed)
    fmap = scene.fmap
    use_j = fmap.source.complex_structure is not None and not scene.machinery_only
    report = RunReport(
        scene=scene.name,
        engine_version=__version__,
        seed=seed,
        count=count,
        theorem_tolerance=tol.theorem,
        machinery_only=not use_j,
        kahler_verified=None,
    )

    contexts = []
    dims_seen = set()
    for idx, p in enumerate(sampled):
        with tr.span("submersion.comp_jets"):
            ctx = fmap.context(p, tol)
            _touch(ctx, "comp_jets")
        with tr.span("submersion.fdata"):
            _touch(ctx, "fdata")
        with tr.span("submersion.split"):
            split = ctx.split
        kah = None
        if use_j:
            with tr.span("geometry.kahler"):
                r_sq, r_compat = complex_structure_residuals(fmap.source, p)
                if r_sq > tol.structural or r_compat > tol.structural:
                    raise StructureError(
                        f"complex structure invalid at {tuple(float(x) for x in p)}: "
                        f"J^2 residual {r_sq:.3e}, compatibility residual {r_compat:.3e}"
                    )
                kah = nabla_j_residual(fmap.source, p)
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
        contexts.append(ctx)
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

    checked = [] if structure_only else contexts
    cache_before = sum(_cache_size(ctx) for ctx in checked)
    with tr.counting_jet2_mul():
        with tr.span("submersion.jdata"):
            for ctx in checked:
                _touch(ctx, "jdata")
        for name, spec in CHECKERS.items():
            if not structure_only and not use_j and spec.needs_j:
                report.skipped.append((name, "no complex structure"))
                continue
            gate_label = None
            if use_j and spec.kahler_gated and not kahler_ok:
                gate_label = "hypothesis unmet: Kaehler parallelism residual above tolerance"
            with tr.span(f"theorems.{name}"):
                for ctx in checked:
                    for r in _memo_check(spec.func, ctx, tol):
                        if gate_label is not None:
                            r = _strip_verdict_b(r, gate_label)
                        report.reports.setdefault(r.name, []).append(r)
    tr.counts["submersion.cache_entries"] += sum(_cache_size(ctx) for ctx in checked) - cache_before

    if report.disagreements():
        report.exit_code = EXIT_DISAGREE
    elif report.warnings:
        report.exit_code = EXIT_HYPOTHESIS
    else:
        report.exit_code = EXIT_OK
    return report


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Mean milliseconds per traced check for every layer span, plus theorems.total_ms."""
    n = max(tr.counts["trace.checks"], 1)
    out = {f"{name}_ms": tr.seconds[name] * 1e3 / n for name in LAYER_SPANS}
    out["theorems.total_ms"] = sum(tr.seconds[f"theorems.{name}"] for name in CHECKERS) * 1e3 / n
    return out


__all__ = ["Tracer", "traced_check", "layer_metrics", "scene_text", "LAYER_SPANS"]
