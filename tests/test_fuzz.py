"""Mutated scene files end in a documented exit code, never in a traceback.

Each example takes a preset or bench scene text, deletes or substitutes a few
of its tokens and puts large constants into map and metric expressions, then
runs it in-process through `cli.main` at two points.  The exit code must be
one of 0, 2, 3, 4, 5 and no exception may leave `main`.
"""

import contextlib
import io
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from confsub.cli import main
from confsub.scenes import PRESETS

from .conftest import BENCH_SCENES

BASES = [PRESETS[name] for name in sorted(PRESETS)] + [f.read_text() for f in BENCH_SCENES]
TOKENS = ["0", "1", "-1", "2.5", "1e308", "1e-300", "nan", "inf", "x1", "x9", "x1^1000",
          "exp(", ")", "(", "*", "/", "^", "=", "[map]", "[source]", "J", "canonical",
          "euclidean", "dim", "true", "F", "g", "log(x1)", "sqrt(x2)", "mod", "exclude"]
EXPONENTS = [3, 10, 100, 200, 300, 308]


def _overflow_scene(expr, box):
    return (f"name = overflow\n[source]\ndim = 2\nmetric = euclidean\n[target]\ndim = 1\n"
            f"metric = euclidean\n[map]\nF 1 = {expr}\n[sampling]\nbox = {box}\n")


@st.composite
def mutated_scenes(draw):
    text = draw(st.sampled_from(BASES))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "substitute", "large"]))
        if kind == "large":
            lines = text.split("\n")
            exprs = [i for i, line in enumerate(lines) if re.match(r"(F|g) \d", line)]
            if not exprs:
                continue
            i = draw(st.sampled_from(exprs))
            k = draw(st.sampled_from(EXPONENTS))
            wrap = draw(st.sampled_from(["({}) * 1e{}", "({}) + 1e{}", "exp(1e{1} * ({0}))"]))
            head, _, expr = lines[i].partition("=")
            lines[i] = f"{head}= {wrap.format(expr.strip(), k)}"
            text = "\n".join(lines)
            continue
        spans = [m.span() for m in re.finditer(r"\S+", text)]
        lo, hi = draw(st.sampled_from(spans))
        new = "" if kind == "delete" else draw(st.sampled_from(TOKENS))
        text = text[:lo] + new + text[hi:]
    return text


@given(text=mutated_scenes())
@example(text=_overflow_scene("exp(2000*x1)", "0.5 1, -1 1"))
@example(text=_overflow_scene("x1^1000", "3 4, -1 1"))
@example(text=_overflow_scene("log(x1 - 1e999)", "-1 1, -1 1"))
@settings(max_examples=60, deadline=None)
def test_mutated_scene_exits_with_documented_code(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "scene.txt"
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", str(path), "--points", "2"])
    assert code in (0, 2, 3, 4, 5), (code, text)
    assert "Traceback" not in err.getvalue()
