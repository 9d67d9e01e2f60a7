#!/usr/bin/env python3
"""Compare the canonical reports of two source trees, row by row.

Usage: python3 scripts/compare_reports.py PARENT_SRC CHANGE_SRC

Runs `python -m confsub check <scene> --seed S --format canonical` as a
subprocess with PYTHONPATH set to each tree in turn, for the six presets and
the three scenes in `bench/scenes/`, at seeds 1, 2, 3, 11 and 12, in three
modes: a full check at the scene's own point count, a full check at
`--points 64` (so the checker tables also run on large groups), and
`--structure-only --points 128`.
Prints how many canonical reports are byte-identical, and how many
`--format table` outputs are, in all three modes.  Each report is parsed
with `confsub.report.from_canonical` (from CHANGE_SRC), and rows are compared
by position; row k of a checker is at the point of structure row k.  Prints
the number of verdict changes (verdict_a, verdict_b, agreement, vacuity,
labels, skipped checkers, Kaehler flag, and the points and dims of the
structure rows) and exit-code changes,
the largest residual change per row name in units of the theorem tolerance,
and the largest change of the dilation (relative), the conformality residual
and the Kaehler residual over the structure rows.

It also runs a fixed set of failing scenes (`FAILING`: maps that leave their
domain or overflow at a sample point, or whose checker residuals overflow
there, or that hold a numeric literal that is not finite; source or target
metrics that are not positive definite there; and a J that is not almost
Hermitian) and a fixed set of malformed scenes (`MALFORMED`: edits of the
linproj42 preset with an unknown key, a repeated key, a `J =` shorthand
mixed with entries, a box interval whose width is not finite, or an
exclusion value that is not finite), written to a temporary directory,
through both trees, and prints the number of stderr changes and each
differing pair of lines;
every run ignores RuntimeWarnings, whose file and line differ between trees.
Their exit-code changes are printed and count with the others.  Last it
prints the line totals of `confsub/*.py` in both trees.
Exits 1 on any verdict or exit-code change.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 11, 12)
MODES = ((), ("--points", "64"), ("--structure-only", "--points", "128"))
STRUCTURE = ("lambda", "conformality", "kahler")
BENCH_SCENES = sorted(str(f) for f in (REPO / "bench" / "scenes").glob("*.txt"))
FAILING_SCENE = """name = {name}
[source]
{source}
[target]
{target}
[map]
{map}
[sampling]
box = {box}
count = 4
seed = 1
"""
PLANE, LINE = "dim = 2\nmetric = euclidean", "dim = 1\nmetric = euclidean"
# name: (map components, box, source and target sections); each fails at a
# sample point, in evaluation or in the frame pass
FAILING = {
    "log-negative": (("log(x1)",), "-1 1, -1 1", PLANE, LINE),
    "division-by-zero": (("x2/(x1 - x1)",), "-1 1, -1 1", PLANE, LINE),
    "fractional-power": (("x1^1.5 + x2",), "-1 1, -1 1", PLANE, LINE),
    "nested": (("sqrt(log(x1))",), "-1 1, -1 1", PLANE, LINE),
    "constant-division": (("x1/0",), "-1 1, -1 1", PLANE, LINE),
    "constant-log": (("log(0 - 1)*x1",), "-1 1, -1 1", PLANE, LINE),
    "exp-overflow": (("exp(2000*x1)",), "0.5 1, -1 1", PLANE, LINE),
    "pow-overflow": (("x1^1000",), "3 4, -1 1", PLANE, LINE),
    "gram-schmidt-overflow": (("(x1) * 1e200",), "-1 1, -1 1", PLANE, LINE),
    "sin-overflow": (("sin(x1*1e200*1e200)",), "0.5 1, -1 1", PLANE, LINE),
    # an indefinite source metric
    "indefinite-source": (("x1",), "-1 1, -1 1", "dim = 2\ng 1 1 = 1\ng 2 2 = 0 - 1", LINE),
    # a target metric with eigenvalue ratio 1e-13, under a map that is conformal for it
    "thin-target": (("x1", "3162277.6601683795*x2"), "-1 1, -1 1, -1 1",
                    "dim = 3\nmetric = euclidean", "dim = 2\ng 1 1 = 1\ng 2 2 = 1e-13"),
    # the canonical J scaled by 1/2, so J^2 = -I/4
    "half-j": (("x1", "x2"), "-1 1, -1 1, -1 1, -1 1",
               "dim = 4\nmetric = euclidean\nJ 1 2 = 0 - 0.5\nJ 2 1 = 0.5\nJ 3 4 = 0 - 0.5\nJ 4 3 = 0.5", PLANE),
    # the conformal-surface bench scene scaled up: the pass stays finite, a checker residual does not
    "report-row-overflow": (("(x1) * 5e153",), "-0.8 0.8, -0.8 0.8",
                            "dim = 2\ng 1 1 = exp(2*x1)\ng 2 2 = exp(2*x1)\nJ = canonical", LINE),
    # 1e999 reads as inf
    "non-finite-literal": (("log(x1 - 1e999)",), "-1 1, -1 1", PLANE, LINE),
}
# name: (old, new), one edit of the linproj42 preset each; the scene reader
# rejects every one: an unknown key, a key given twice in its section, a
# `J =` shorthand together with `J i j` entries, a box interval with an
# infinite bound or a width that overflows, or an infinite modulus
MALFORMED = {
    "unknown-top-level-key": ("name = linproj42", "name = linproj42\nfoo = 1"),
    "unknown-sampling-key": ("seed = 7", "seed = 7\nfoo = 3"),
    "unknown-tolerances-keys": ("seed = 7", "seed = 7\n[tolerances]\ndrop = 0.5\nstructural = oops"),
    "repeated-name": ("name = linproj42", "name = linproj42\nname = other"),
    "repeated-theorem": ("seed = 7", "seed = 7\n[tolerances]\ntheorem = 1e-3\ntheorem = 1e-6"),
    "repeated-g-entry": ("[target]\ndim = 2\nmetric = euclidean",
                         "[target]\ndim = 2\ng 1 1 = 5\ng 1 1 = 1\ng 2 2 = 1"),
    "repeated-metric": ("metric = euclidean", "metric = euclidean\nmetric = euclidean"),
    "j-canonical-then-none": ("J = canonical", "J = canonical\nJ = none"),
    "j-canonical-with-entries": ("J = canonical", "J = canonical\nJ 1 2 = 5"),
    "j-none-with-entries": ("J = canonical", "J = none\nJ 1 2 = 0 - 1\nJ 2 1 = 1\nJ 3 4 = 0 - 1\nJ 4 3 = 1"),
    "infinite-box": ("box = -1 1,", "box = -inf inf,"),
    "overflowing-box": ("box = -1 1,", "box = -1e308 1e308,"),
    "infinite-modulus": ("seed = 7", "seed = 7\nexclude = x1 mod inf"),
}


def check(src: str, *args: str) -> tuple[int, str, str]:
    # numpy's RuntimeWarnings name each tree's file and line, which differ between trees
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve()), "PYTHONWARNINGS": "ignore::RuntimeWarning"}
    proc = subprocess.run([sys.executable, "-m", "confsub", "check", *args],
                          capture_output=True, text=True, env=env, cwd=REPO)
    return proc.returncode, proc.stdout, proc.stderr


def failing_scenes() -> dict[str, str]:
    scenes = {}
    for name, (comps, box, source, target) in FAILING.items():
        map_text = "\n".join(f"F {a} = {c}" for a, c in enumerate(comps, 1))
        scenes[name] = FAILING_SCENE.format(name=name, map=map_text, box=box, source=source, target=target)
    return scenes


def malformed_scenes(base: str) -> dict[str, str]:
    return {name: base.replace(old, new, 1) for name, (old, new) in MALFORMED.items()}


def scene_changes(parent: str, change: str, kind: str, scenes: dict[str, str]) -> int:
    """Run scene texts through both trees; print the stderr changes, return the exit-code changes."""
    exit_changes, stderr_changes = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in scenes.items():
            path = Path(tmp) / f"{name}.scene"
            path.write_text(text)
            (code_p, _, err_p), (code_c, _, err_c) = check(parent, str(path)), check(change, str(path))
            if code_p != code_c:
                exit_changes += 1
                print(f"exit code {code_p} -> {code_c}: {kind} scene {name}")
            if err_p != err_c:
                stderr_changes.append((name, err_p.strip(), err_c.strip()))
    print(f"{len(scenes)} {kind} scenes: stderr changes: {len(stderr_changes)}")
    for name, err_p, err_c in stderr_changes:
        print(f"  {name}:\n    - {err_p}\n    + {err_c}")
    return exit_changes


def line_total(src: str) -> int:
    """The number of lines of the modules `confsub/*.py` under a source tree, as `wc -l` counts them."""
    return sum(f.read_bytes().count(b"\n") for f in (Path(src) / "confsub").glob("*.py"))


def head(report) -> tuple:
    """Kaehler flag, skipped checkers, per-point points and dims, and row names."""
    points = [(s.point, s.dims) for s in report.structure]
    return report.kahler_verified, report.skipped, points, list(report.reports)


def verdict_key(r) -> tuple:
    return (r.verdict_a, r.verdict_b, r.agree, r.vacuous, r.label, r.residual_b is None)


def structure_changes(a, b) -> dict[str, float]:
    """Largest change of the dilation (relative), conformality and Kaehler residuals."""
    out = dict.fromkeys(STRUCTURE, 0.0)
    for x, y in zip(a.structure, b.structure, strict=True):
        out["lambda"] = max(out["lambda"], abs(x.lam - y.lam) / abs(x.lam))
        out["conformality"] = max(out["conformality"],
                                  abs(x.conformality_residual - y.conformality_residual))
        if x.kahler_residual is not None:
            out["kahler"] = max(out["kahler"], abs(x.kahler_residual - y.kahler_residual))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = argv
    sys.path.insert(0, str(Path(change).resolve()))
    from confsub.report import from_canonical
    from confsub.scenes import PRESETS

    _, listing, _ = check(change, "--list-presets")
    scenes = listing.split() + BENCH_SCENES
    rows = structure_rows = verdict_changes = exit_changes = reports = identical = tables = same_tables = 0
    worst: dict[str, float] = {}
    moved = dict.fromkeys(STRUCTURE, 0.0)
    for scene in scenes:
        for seed, mode in ((seed, mode) for mode in MODES for seed in SEEDS):
            args = (scene, "--seed", str(seed), "--format", "canonical", *mode)
            (code_p, out_p, _), (code_c, out_c, _) = check(parent, *args), check(change, *args)
            label = " ".join((Path(scene).stem, "seed", str(seed), *mode))
            if code_p != code_c:
                exit_changes += 1
                print(f"exit code {code_p} -> {code_c}: {label}")
            table = (scene, "--seed", str(seed), "--format", "table", *mode)
            (_, table_p, _), (_, table_c, _) = check(parent, *table), check(change, *table)
            tables += 1
            same_tables += table_p == table_c
            if not (out_p and out_c):
                continue
            reports += 1
            identical += out_p == out_c
            rp, rc = from_canonical(out_p), from_canonical(out_c)
            if head(rp) != head(rc):
                verdict_changes += 1
                print(f"structure points or dims, skipped checkers or row names changed: {label}")
                continue
            structure_rows += len(rp.structure)
            for key, gap in structure_changes(rp, rc).items():
                moved[key] = max(moved[key], gap)
            tol = rp.theorem_tolerance
            for name, reps in rp.reports.items():
                for k, (a, b) in enumerate(zip(reps, rc.reports[name], strict=True)):
                    rows += 1
                    if verdict_key(a) != verdict_key(b):
                        verdict_changes += 1
                        print(f"verdict change: {name} at {rp.structure[k].point} ({label}): "
                              f"{verdict_key(a)} -> {verdict_key(b)}")
                    gap = abs(a.residual_a - b.residual_a)
                    if a.residual_b is not None and b.residual_b is not None:
                        gap = max(gap, abs(a.residual_b - b.residual_b))
                    worst[name] = max(worst.get(name, 0.0), gap / tol)
    print(f"{len(scenes)} scenes x {len(SEEDS)} seeds x {len(MODES)} modes: "
          f"{rows} rows and {structure_rows} structure rows compared")
    print(f"identical canonical reports: {identical} of {reports}")
    print(f"identical tables: {same_tables} of {tables}")
    exit_changes += scene_changes(parent, change, "failing", failing_scenes())
    exit_changes += scene_changes(parent, change, "malformed", malformed_scenes(PRESETS["linproj42"]))
    print(f"verdict changes: {verdict_changes}")
    print(f"exit-code changes: {exit_changes}")
    print("largest residual change per row (units of the theorem tolerance):")
    for name in sorted(worst, key=worst.get, reverse=True):
        print(f"  {name:<38} {worst[name]:.3e}")
    print("largest structure-row change:")
    print(f"  lambda (relative) {moved['lambda']:.3e}, conformality residual "
          f"{moved['conformality']:.3e}, kaehler residual {moved['kahler']:.3e}")
    print(f"lines of confsub/*.py: {line_total(parent)} -> {line_total(change)}")
    return 1 if verdict_changes or exit_changes else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
