"""confsub benchmark: closed-loop `confsub check` runs, timed end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload full-6d --seed 1 --seconds 34 --trace 0
    python3 bench/run.py --workload full-6d --seed 1 --seconds 34 --trace 1
    python3 bench/run.py --self-check          # the benchmark tests itself
    python3 bench/run.py --write-golden        # rebuild bench/golden.jsonl

One process, one thread (BLAS and OpenMP pools pinned to 1), closed loop: one
check starts when the previous one has returned.  Each check is
`confsub.cli.main(["check", <scene>, "--format", "canonical", ...])` with its
output captured, so every check parses its scene text afresh, as the CLI does.
Reusing a parsed scene would reuse its cached point contexts and fake any gain.
Garbage left by earlier checks is collected between checks, outside the timed
region, because a CLI process starts each check without it.

Times are reported at a fixed reference machine speed: a short calibration
kernel runs before every check, and each measured time is scaled by
CALIB_REF_MS over the kernel's time around it (see calibration_ms).  On a
shared host the raw wall times of one input drift by 20-50% within a minute;
the scaled times hold within a few percent.  The human-readable lines print
both, "as measured" being the raw wall figure.

The workload seed generates each check's sampling seed.  A workload is a cycle
of checks (every scene, round robin, each round with fresh sampling seeds) that
repeats until `--seconds` have passed.

Correctness gate, applied to the canonical output outside the timed region:
at the default seed every check must match `golden.jsonl` (exit code, Kaehler
flag, dimensions, and for every report row the verdict on each side and the
agreement flag); at other seeds a check must exit 0 with no disagreement.

`--trace 0` prints the end-to-end metrics: setup_s (median of fresh
interpreters importing `confsub.cli` and resolving the workload's scenes),
points_per_s, check_ms.p50, check_ms.p90, pass_frac and peak_rss_mb.
`--trace 1` alternates each untraced CLI check with a traced replica of the
same check (see layers.py), requires both to print the same report, and prints
the per-layer metrics: mean ms and counts per traced check, row ratios, the
residual drift against the golden file in units of the theorem tolerance, the
tracing overhead, and the `scipy.stats` import time from `python -X importtime`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENE_DIR = BENCH / "scenes"
GOLDEN = BENCH / "golden.jsonl"
DEFAULT_SEED = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
SUBPROCESS_TIMEOUT_S = 60
UNACCOUNTED_MAX = 0.02  # share of a check the traced layers may miss
# Median of `calibration_ms` on an unloaded 2-core x86-64 VM (Python 3.11,
# numpy 2.4).  Times are reported at this machine speed; see calibration_ms.
CALIB_REF_MS = 2.5
CALIB_WINDOW = 2  # calibration samples on each side of a check that scale it
VERDICT_CODES = {"holds": "h", "fails": "f", "inconclusive": "i"}


@dataclass(frozen=True)
class Workload:
    scenes: tuple[str, ...]
    points: int | None  # None: each scene's own sample count
    structure_only: bool
    rounds: int  # sampling seeds per scene in one cycle of checks


WORKLOADS = {
    # jet pass plus checkers take ~95% of the time: array jets and per-point
    # tables show here first
    "full-6d": Workload(("example33", "linproj63", "anti-toy"), 4, False, 16),
    # sampling, float pass, split and Kaehler test only; the jet and checker
    # layers are bypassed, so a change to them should leave this unchanged
    "structure-sweep": Workload(
        ("example33", "linproj42", "linproj63", "holo4", "exp1", "diag-x1sq",
         "conformal-surface", "twisted4", "anti-toy"), 128, True, 8),
    # the same jet and checker layers on tiny matrices, where per-call overhead
    # and fixed per-check costs (parse, sampling, argparse, rendering) weigh
    # more; twisted4 runs twice a round, so that the median check falls inside
    # its cluster, not in the gap between the 2-D scenes and the 4-D ones
    "small-full": Workload(
        ("exp1", "twisted4", "diag-x1sq", "linproj42", "holo4", "conformal-surface", "twisted4"),
        None, False, 8),
}


@dataclass(frozen=True)
class Check:
    scene: str
    seed: int
    points: int | None
    structure_only: bool

    @property
    def key(self) -> str:
        return f"{self.scene}/{self.seed}/{self.points or '-'}"

    @property
    def scene_arg(self) -> str:
        path = SCENE_DIR / f"{self.scene}.txt"
        return str(path) if path.is_file() else self.scene

    def argv(self) -> list[str]:
        argv = ["check", self.scene_arg, "--seed", str(self.seed), "--format", "canonical"]
        if self.points is not None:
            argv += ["--points", str(self.points)]
        if self.structure_only:
            argv.append("--structure-only")
        return argv


def check_cycle(workload: Workload, seed: int) -> list[Check]:
    rng = random.Random(seed)
    return [
        Check(scene, rng.randrange(2**31), workload.points, workload.structure_only)
        for _ in range(workload.rounds)
        for scene in workload.scenes
    ]


# ---------------------------------------------------------------------------
# Running checks


def import_confsub():
    """Import confsub from this checkout's src/ and nowhere else, with one BLAS thread."""
    for var in THREAD_VARS:  # read when numpy loads
        os.environ[var] = "1"
    os.environ.pop("CONFSUB_TOL", None)  # the CLI would read it as a tolerance override
    if not (SRC / "confsub" / "__init__.py").is_file():
        raise SystemExit(f"benchmark error: no confsub sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import confsub

    if Path(confsub.__file__).resolve().parent != (SRC / "confsub").resolve():
        raise SystemExit(f"benchmark error: confsub imported from {confsub.__file__}")


def run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and wall seconds of one in-process CLI call."""
    from confsub import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), elapsed


def summarize(code: int, canonical: str) -> dict:
    """What the gate compares: exit code, structure flags and every row's verdicts."""
    from confsub.report import from_canonical

    entry = {"exit": code, "count": 0, "kahler": None, "dims": None, "rows": {}, "max": {}}
    if not canonical:
        return entry
    rep = from_canonical(canonical)
    entry["count"] = rep.count
    entry["kahler"] = rep.kahler_verified
    dims = sorted({row.dims for row in rep.structure if row.dims is not None})
    entry["dims"] = [list(d) for d in dims] or None
    for name, reps in rep.reports.items():
        entry["rows"][name] = " ".join(
            f"{VERDICT_CODES[r.verdict_a]}{VERDICT_CODES[r.verdict_b]}{int(r.agree)}" for r in reps
        )
        rbs = [r.residual_b for r in reps if r.residual_b is not None]
        entry["max"][name] = [max(r.residual_a for r in reps), max(rbs) if rbs else None]
    entry["disagreements"] = len(rep.disagreements())
    entry["tol"] = rep.theorem_tolerance
    return entry


class Gate:
    """Per-check correctness: the golden verdicts where they exist, else exit 0 and agreement."""

    def __init__(self, golden: dict[str, dict] | None):
        self.golden = golden or {}
        self.drift_max = 0.0

    def check(self, check: Check, code: int, canonical: str) -> tuple[str | None, dict]:
        got = summarize(code, canonical)
        want = self.golden.get(check.key)
        if want is None:
            if code != 0:
                return f"{check.key}: exit {code}", got
            if got.get("disagreements"):
                return f"{check.key}: {got['disagreements']} disagreements", got
            return None, got
        for field in ("exit", "count", "kahler", "dims"):
            if got[field] != want[field]:
                return f"{check.key}: {field} {got[field]!r} != golden {want[field]!r}", got
        if got["rows"] != want["rows"]:
            names = sorted(n for n in set(got["rows"]) | set(want["rows"])
                           if got["rows"].get(n) != want["rows"].get(n))
            return f"{check.key}: verdicts differ from golden in {', '.join(names)}", got
        for name, (ra, rb) in got["max"].items():
            ga, gb = want["max"][name]
            moved = abs(ra - ga) if rb is None or gb is None else max(abs(ra - ga), abs(rb - gb))
            self.drift_max = max(self.drift_max, moved / got["tol"])
        return None, got


def load_golden(workload: str, checks: list[Check]) -> dict[str, dict]:
    """Golden entries of one workload's checks at the default seed, one JSON object a line."""
    golden = {}
    with GOLDEN.open(encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            if entry.pop("workload") == workload:
                golden[entry.pop("check")] = entry
    missing = [c.key for c in checks if c.key not in golden]
    if missing:
        raise SystemExit(f"benchmark error: {GOLDEN.name} lacks {workload} checks {missing[:3]}")
    return golden


class _Dual:
    """A value with a gradient, multiplied the way forward-mode jets are."""

    __slots__ = ("value", "grad")

    def __init__(self, value, grad):
        self.value = value
        self.grad = grad

    def __mul__(self, other):
        return _Dual(self.value * other.value, self.grad * other.value + other.grad * self.value)


def calibration_ms() -> float:
    """Wall ms of a fixed kernel that does not touch confsub.

    The host's speed drifts by tens of percent within a minute on a shared
    machine, and CPU time drifts with it.  The kernel does the two kinds of work
    a check does, interpreted float arithmetic and products of small objects
    that carry numpy gradients; one sample runs before every check, and each
    check's time is scaled by CALIB_REF_MS over the median of the samples
    around it.
    """
    import numpy as np

    dual = _Dual(1.5, np.arange(4.0))
    t0 = perf_counter()
    x = 0.0
    for i in range(20_000):
        x += i * 0.5
    for _ in range(800):
        dual * dual
    return (perf_counter() - t0) * 1e3


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.points = 0
        self.check_s: list[float] = []
        self.calib_ms: list[float] = []

    def speed(self) -> float:
        """Reference machine speed over this run's: scales a time measured here."""
        return CALIB_REF_MS / statistics.median(self.calib_ms)

    def adjusted_s(self) -> list[float]:
        """Check times at the reference machine speed, each scaled by the samples around it."""
        cal = self.calib_ms
        return [
            t * CALIB_REF_MS / statistics.median(cal[max(0, i - CALIB_WINDOW):i + CALIB_WINDOW + 1])
            for i, t in enumerate(self.check_s)
        ]

    def add(self, reason: str | None, got: dict, elapsed: float, calib_ms: float, stderr: str):
        self.attempted += 1
        self.check_s.append(elapsed)
        self.calib_ms.append(calib_ms)
        if reason is None:
            self.points += got["count"]
        else:
            self.failed += 1
            print(f"gate failure: {reason}", file=sys.stderr)
            if stderr:
                print(stderr.rstrip(), file=sys.stderr)


def warm_up(check: Check):
    """Pay first-call costs inside numpy and scipy, then freeze the heap so that
    clearing garbage between checks costs little."""
    run_cli(check.argv())
    gc.collect()
    gc.freeze()


def measure(checks: list[Check], seconds: float, gate: Gate) -> Tally:
    warm_up(checks[0])
    tally = Tally()
    end = perf_counter() + seconds
    i = 0
    while perf_counter() < end:
        check = checks[i % len(checks)]
        i += 1
        # a CLI process starts each check without the garbage of earlier ones;
        # point caches form reference cycles that only the collector frees
        gc.collect()
        calib = calibration_ms()
        code, out, err, elapsed = run_cli(check.argv())
        reason, got = gate.check(check, code, out)
        tally.add(reason, got, elapsed, calib, err)
    return tally


def measure_traced(checks: list[Check], seconds: float, gate: Gate):
    """Untraced CLI check and traced replica per check, alternating which runs first."""
    import layers
    from confsub import cli

    tr = layers.Tracer()
    tally = Tally()
    totals = {"untraced": 0.0, "traced": 0.0, "cli_run": 0.0}
    original_run = cli.run

    def timed_run(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original_run(*args, **kwargs)
        finally:
            totals["cli_run"] += perf_counter() - t0

    def traced(check):
        gc.collect()
        t0 = perf_counter()
        text = layers.traced_check(tr, check.scene_arg, check.seed, check.points,
                                   check.structure_only)
        totals["traced"] += perf_counter() - t0
        return text

    warm_up(checks[0])
    cli.run = timed_run
    try:
        end = perf_counter() + seconds
        i = 0
        while perf_counter() < end:
            check = checks[i % len(checks)]
            if i % 2:
                text = traced(check)
            gc.collect()
            calib = calibration_ms()
            code, out, err, elapsed = run_cli(check.argv())
            if not i % 2:
                text = traced(check)
            i += 1
            totals["untraced"] += elapsed
            reason, got = gate.check(check, code, out)
            if reason is None and text != (out or None):
                reason = f"{check.key}: traced replica report differs from the CLI report"
            tally.add(reason, got, elapsed, calib, err)
    finally:
        cli.run = original_run
    return tr, tally, totals


# ---------------------------------------------------------------------------
# Set-up and environment


def _python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)


SETUP_CODE = (
    "import sys, confsub.cli\n"
    "from confsub.scenes import resolve_scene\n"
    "for arg in sys.argv[1:]:\n"
    "    resolve_scene(arg)\n"
)


def setup_seconds(scene_args: list[str]) -> tuple[float, float]:
    """Median wall seconds of fresh interpreters that import the CLI and resolve
    the scenes: at the reference machine speed, and as measured."""
    _python(["-c", SETUP_CODE, *scene_args])  # warm-up: byte-compile once
    adjusted, raw = [], []
    for _ in range(SETUP_REPEATS):
        before = calibration_ms()
        t0 = perf_counter()
        _python(["-c", SETUP_CODE, *scene_args])
        raw.append(perf_counter() - t0)
        adjusted.append(raw[-1] * 2 * CALIB_REF_MS / (before + calibration_ms()))
    return statistics.median(adjusted), statistics.median(raw)


def import_scipy_stats_ms() -> float:
    """Median cumulative `scipy.stats` import time while importing `confsub.cli`."""
    times = []
    for _ in range(IMPORTTIME_REPEATS):
        err = _python(["-X", "importtime", "-c", "import confsub.cli"]).stderr
        for line in err.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "scipy.stats":
                times.append(int(parts[1]) / 1e3)
    return statistics.median(times) if times else 0.0


def environment() -> dict:
    import numpy
    import scipy

    commit = None  # a checkout without .git is identified by src_sha256 alone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=SUBPROCESS_TIMEOUT_S).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "confsub").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Metrics


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(tally: Tally, check_s: list[float], setup_s: float) -> dict:
    ms = [t * 1e3 for t in check_s]
    return {
        "setup_s": metric(setup_s, "s"),
        "points_per_s": metric(tally.points / sum(check_s), "1/s"),
        "check_ms.p50": metric(statistics.median(ms), "ms"),
        "check_ms.p90": metric(statistics.quantiles(ms, n=10, method="inclusive")[-1]
                               if len(ms) > 1 else ms[0], "ms"),
        "pass_frac": metric((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer_metrics(tr, tally: Tally, totals: dict, gate: Gate) -> dict:
    """Per traced check; times at the reference machine speed, scaled by the whole run's samples."""
    import layers

    n = max(tr.counts["trace.checks"], 1)
    rows = tr.counts["theorems.rows"]
    speed = tally.speed()
    out = {name: metric(value * speed, "ms") for name, value in layers.layer_metrics(tr).items()}
    cli_ms = (totals["untraced"] - totals["cli_run"]) * 1e3 / tally.attempted
    out["cli.main_ms"] = metric(cli_ms * speed, "ms")
    out["expr.jet2_mul"] = metric(tr.counts["expr.jet2_mul"] / n, "count")
    out["submersion.cache_entries"] = metric(tr.counts["submersion.cache_entries"] / n, "count")
    out["scenes.points"] = metric(tr.counts["scenes.points"] / n, "count")
    out["theorems.rows"] = metric(rows / n, "count")
    out["theorems.nontrivial_frac"] = metric(tr.counts["theorems.nontrivial_rows"] / max(rows, 1), "ratio")
    out["theorems.vacuous_frac"] = metric(tr.counts["theorems.vacuous_rows"] / max(rows, 1), "ratio")
    out["theorems.residual_drift_max"] = metric(gate.drift_max, "tol")
    out["trace.checks"] = metric(tr.counts["trace.checks"], "count")
    out["trace.overhead_frac"] = metric(totals["traced"] / totals["untraced"] - 1, "ratio")
    out["setup.import_scipy_stats_ms"] = metric(import_scipy_stats_ms() * speed, "ms")
    return out


def layer_sum_ms(metrics: dict) -> float:
    import layers

    return sum(metrics[f"{name}_ms"]["value"] for name in layers.LAYER_SPANS)


# ---------------------------------------------------------------------------
# Modes


def bench(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    checks = check_cycle(workload, seed)
    gate = Gate(load_golden(workload_name, checks) if seed == DEFAULT_SEED else None)
    if trace:
        tr, tally, totals = measure_traced(checks, seconds, gate)
        metrics = per_layer_metrics(tr, tally, totals, gate)
        raw = {}
    else:
        setup_s, setup_raw_s = setup_seconds(sorted({c.scene_arg for c in checks}))
        tally = measure(checks, seconds, gate)
        metrics = end_to_end_metrics(tally, tally.adjusted_s(), setup_s)
        raw = end_to_end_metrics(tally, tally.check_s, setup_raw_s)
    for name, m in metrics.items():
        as_measured = f"  (as measured {raw[name]['value']:.6g})" if name in raw else ""
        print(f"{workload_name:<16} {name:<48} {m['value']:>14.6g} {m['unit']}{as_measured}")
    print(f"checks: {tally.attempted} attempted, {tally.failed} failed")
    env = environment()
    env["speed_factor"] = tally.speed()
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def write_golden() -> int:
    lines = []
    for name, workload in WORKLOADS.items():
        checks = check_cycle(workload, DEFAULT_SEED)
        for check in checks:
            code, out, err, _ = run_cli(check.argv())
            got = summarize(code, out)
            if code != 0 or got.pop("disagreements"):
                raise SystemExit(f"golden check {check.key} exits {code}: {err}")
            del got["tol"]
            lines.append(json.dumps({"workload": name, "check": check.key, **got}))
        print(f"{name}: {len(checks)} checks")
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


def self_check(seconds: float) -> int:
    """The gate catches one flipped verdict, and the traced layers account for the check time."""
    ok = True
    checks = check_cycle(WORKLOADS["full-6d"], DEFAULT_SEED)
    golden = load_golden("full-6d", checks)
    check = checks[0]
    entry = json.loads(json.dumps(golden[check.key]))
    row = next(iter(entry["rows"]))
    flipped = {"h": "f", "f": "h", "i": "h"}[entry["rows"][row][0]]
    entry["rows"][row] = flipped + entry["rows"][row][1:]
    code, out, _, _ = run_cli(check.argv())
    reason, _ = Gate({check.key: entry}).check(check, code, out)
    fail_frac = 1.0 if reason else 0.0
    print(f"flipped golden verdict ({check.key}, {row}): fail_frac = {fail_frac}")
    ok &= fail_frac > 0

    # the layer sum misses only the glue between spans, the CLI's argument
    # parsing and the tracing overhead itself
    gate = Gate(golden)
    tr, tally, totals = measure_traced(checks, seconds, gate)
    m = per_layer_metrics(tr, tally, totals, gate)
    layers_ms = layer_sum_ms(m)
    unaccounted = layers_ms / (totals["untraced"] * 1e3 * tally.speed() / tally.attempted) - 1
    overhead = m["trace.overhead_frac"]["value"]
    jet_share = (m["submersion.jdata_ms"]["value"] + m["theorems.total_ms"]["value"]) / layers_ms
    print(f"full-6d: {tally.attempted} checks, {tally.failed} failed; layer sum vs untraced "
          f"{unaccounted:+.4f}, trace.overhead_frac {overhead:+.4f}, jdata+checkers share "
          f"{jet_share:.3f}")
    ok &= tally.failed == 0 and abs(unaccounted) <= abs(overhead) + UNACCOUNTED_MAX
    ok &= jet_share >= 0.9

    checks = check_cycle(WORKLOADS["structure-sweep"], DEFAULT_SEED)
    gate = Gate(load_golden("structure-sweep", checks))
    tr, tally, totals = measure_traced(checks, seconds / 3, gate)
    zeros = {name: tr.counts[name] for name in ("expr.jet2_mul", "submersion.cache_entries",
                                                 "theorems.rows")}
    print(f"structure-sweep: {tally.attempted} checks, {tally.failed} failed; {zeros}")
    ok &= tally.failed == 0 and not any(zeros.values())
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_confsub()
    if args.write_golden:
        return write_golden()
    if args.self_check:
        return self_check(min(args.seconds, 10.0))
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
