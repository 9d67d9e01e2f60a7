"""The traced replica of the benchmark (`bench/layers.py`) against the CLI.

`python3 bench/run.py --trace 1` times a step-by-step copy of `runner.run`
that imports engine internals and requires its report to equal the CLI's.
This smoke test runs the replica on one full and one structure-only check of
a small preset, so that a change to an interface it uses fails here and not
only in a benchmark run.
"""

import contextlib
import importlib.util
import io

import pytest

from confsub import cli

from .conftest import REPO


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", REPO / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("structure_only", [False, True], ids=["full", "structure-only"])
def test_traced_replica_matches_cli(structure_only):
    layers = _layers()
    tracer = layers.Tracer()
    text = layers.traced_check(tracer, "holo4", 5, 4, structure_only)
    argv = ["check", "holo4", "--seed", "5", "--points", "4", "--format", "canonical"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--structure-only"] * structure_only)
    assert code == 0
    assert text is not None and text == out.getvalue()
    assert tracer.counts["trace.checks"] == 1
