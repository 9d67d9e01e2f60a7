import contextlib
import dataclasses
import io
import os
import re
import subprocess
import sys

import pytest

from confsub import scenes
from confsub.cli import main
from confsub.config import DEFAULT_TOLERANCES, Tolerances
from confsub.errors import SceneError
from confsub.report import CheckerAggregate, from_canonical, to_canonical
from confsub.runner import run
from confsub.scenes import MAX_POINTS, PRESETS, load_preset, load_scene_text, sample_points

from .conftest import REPO, SRC


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "confsub", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_check_preset_exits_zero():
    code, out, err = run_cli("check", "linproj42", "--points", "4")
    assert code == 0, err
    assert "exit 0 (ok)" in out
    assert "d2_integrability" in out


def test_list_presets():
    code, out, _ = run_cli("check", "--list-presets")
    assert code == 0
    names = out.split()
    assert "example33" in names and "exp1" in names


def test_scene_error_exit_code():
    code, _, err = run_cli("check", "/nonexistent/scene.txt")
    assert code == 2
    assert "scene error" in err


def test_malformed_scene_file_exit_code(tmp_path):
    bad = tmp_path / "bad.scene"
    bad.write_text("[source]\ndim = nope\n")
    code, _, err = run_cli("check", str(bad))
    assert code == 2
    assert "line 2" in err


def test_repeated_key_is_one_scene_error_line(tmp_path):
    bad = tmp_path / "twice.scene"
    bad.write_text(PRESETS["linproj42"].replace("J = canonical", "J = canonical\nJ = none", 1))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", str(bad)])
    assert code == 2
    assert err.getvalue().splitlines() == ["scene error: line 7: duplicate 'J' in [source], first given on line 6"]


def test_structural_failure_exit_code(tmp_path):
    # a kernel that mixes the complex pairing cannot be split: exit 3
    text = """
name = mixed-kernel
[source]
dim = 4
metric = euclidean
J = canonical
[target]
dim = 2
metric = euclidean
[map]
F 1 = x1
F 2 = (x2 + x3)*0.7071067811865476
[sampling]
box = -1 1, -1 1, -1 1, -1 1
count = 4
seed = 1
"""
    f = tmp_path / "deg.scene"
    f.write_text(text)
    code, _, err = run_cli("check", str(f))
    assert code == 3
    assert "structural failure" in err
    assert "ambiguous" in err


def test_machinery_preset_skips_j_checkers():
    code, out, _ = run_cli("check", "exp1", "--points", "4")
    assert code == 0
    assert "no complex structure" in out
    assert "sff_identity_horizontal" in out


def test_only_filter():
    code, out, _ = run_cli("check", "linproj42", "--points", "3", "--only", "tension_formula")
    assert code == 0
    assert "tension_formula" in out
    assert "d1_integrability" not in out


def test_only_unknown_checker():
    # a misspelt name is a usage error, found before any point is sampled, with or without checkers
    for mode in ((), ("--structure-only",)):
        code, out, err = run_cli("check", "linproj42", "--only", "bogus,tension_formula,nope", *mode)
        assert (code, out) == (2, ""), mode
        assert err.splitlines() == ["scene error: unknown checkers: bogus, nope"], mode


def test_sample_count_above_the_maximum_is_a_scene_error(monkeypatch):
    # numpy could not allocate the sampler's index array for this count
    code, out, err = run_cli("check", "exp1", "--points", "100000000000")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["scene error: sample count 100000000000 exceeds the maximum of 100000"]
    monkeypatch.setattr(scenes, "ScrambledHalton", None)  # the count fails before any point is drawn
    with pytest.raises(SceneError, match=f"^sample count {MAX_POINTS + 1} exceeds the maximum of {MAX_POINTS}$"):
        run(load_preset("exp1"), points=MAX_POINTS + 1)


@pytest.mark.parametrize("names", ["", " , "])
def test_only_without_names_is_a_scene_error(names):
    # an --only that names no checker would otherwise run every checker
    code, out, err = run_cli("check", "linproj42", "--points", "2", "--only", names)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["scene error: only names no checker"]
    with pytest.raises(SceneError, match="^only names no checker$"):
        run(load_preset("linproj42"), points=2, only=[])


def test_structure_only():
    code, out, _ = run_cli("check", "example33", "--points", "5", "--structure-only")
    assert code == 0
    assert "structure per point" in out
    assert "d2_integrability" not in out


def test_canonical_determinism():
    c1 = run_cli("check", "example33", "--points", "6", "--seed", "7", "--format", "canonical")
    c2 = run_cli("check", "example33", "--points", "6", "--seed", "7", "--format", "canonical")
    assert c1 == c2
    assert c1[0] == 0
    assert c1[1].startswith("confsub-report = 1")


def test_main_callable_in_process(capsys):
    # one parser serves every call: the options of one call must not reach the next
    assert main(["check", "linproj42", "--points", "3", "--format", "canonical", "--structure-only"]) == 0
    assert capsys.readouterr().out.startswith("confsub-report = 1")
    assert main(["check", "linproj42", "--points", "3"]) == 0
    out = capsys.readouterr().out
    assert "exit 0 (ok)" in out and "d1_integrability" in out


# ---------------------------------------------------------------------------
# canonical serialization


@pytest.fixture(scope="module")
def sample_report():
    return run(load_preset("holo4"), points=4)


def test_canonical_round_trip_lossless(sample_report):
    text = to_canonical(sample_report)
    parsed = from_canonical(text)
    assert parsed == sample_report
    assert to_canonical(parsed) == text


def test_canonical_verdicts_must_follow_from_the_residuals(sample_report):
    text = to_canonical(sample_report)
    row = next(line for line in text.splitlines() if "| va=holds | vb=holds | agree=1 |" in line)
    for bad in (row.replace("va=holds", "va=fails"), row.replace("vb=holds", "vb=inconclusive"),
                row.replace("agree=1", "agree=0")):
        with pytest.raises(ValueError, match="do not follow from its residuals"):
            from_canonical(text.replace(row, bad))


def test_canonical_missing_header_field_names_its_line(sample_report):
    text = to_canonical(sample_report).replace(f"scene = {sample_report.scene}\n", "", 1)
    with pytest.raises(ValueError, match=r"^line 9: missing header field 'scene'$"):
        from_canonical(text)


def test_canonical_short_row_names_its_line(sample_report):
    lines = to_canonical(sample_report).splitlines()
    n = next(i for i, line in enumerate(lines) if line.startswith("[checker "))
    lines[n + 1] = lines[n + 1].split(" | vb=")[0]
    with pytest.raises(ValueError, match=rf"^line {n + 2}: too few fields"):
        from_canonical("\n".join(lines) + "\n")


def test_canonical_checker_rows_must_match_the_structure_rows(sample_report):
    # row k of a checker is at the point of structure row k: a row too few or too many is an error
    lines = to_canonical(sample_report).splitlines()
    n = next(i for i, line in enumerate(lines) if line.startswith("[checker "))
    for edited, rows in ((lines[:n + 2] + lines[n + 3:], 3), (lines[:n + 2] + lines[n + 1:], 5)):
        with pytest.raises(ValueError, match=rf"^line {n + 1}: \{lines[n]} has {rows} rows, "
                                             r"one per structure row needs 4$"):
            from_canonical("\n".join(edited) + "\n")


def test_canonical_structure_rows_are_numbered_by_position_and_counted():
    # structure row k is numbered k, and the header's count is the number of structure rows
    text = to_canonical(run(load_preset("linproj42"), points=3, seed=2))
    lines = text.splitlines()
    n = lines.index("[structure]")
    assert lines[n + 1].startswith("0 | ")
    renumbered = lines[:n + 1] + ["7" + lines[n + 1][1:]] + lines[n + 2:]
    with pytest.raises(ValueError, match=rf"^line {n + 2}: expected '0 \| point="):
        from_canonical("\n".join(renumbered) + "\n")
    assert "\ncount = 3\n" in text
    with pytest.raises(ValueError, match=rf"^line {n + 1}: \[structure\] has 3 rows, the header's count is 5$"):
        from_canonical(text.replace("\ncount = 3\n", "\ncount = 5\n"))


def test_canonical_aggregates_must_follow_from_the_rows(sample_report):
    lines = to_canonical(sample_report).splitlines()
    n = lines.index("[aggregates]") + 1
    total = sample_report.aggregates()[0].total
    assert f"| agree={total}/{total} |" in lines[n]
    lines[n] = lines[n].replace(f"| agree={total}/{total} |", f"| agree=0/{total} |")
    with pytest.raises(ValueError, match=rf"^line {n + 1}: expected .*agree={total}/{total}"):
        from_canonical("\n".join(lines) + "\n")


def test_aggregates_match_recomputation(sample_report):
    text = to_canonical(sample_report)
    parsed = from_canonical(text)
    for agg in parsed.aggregates():
        fresh = CheckerAggregate.from_reports(agg.name, parsed.reports[agg.name])
        assert fresh == agg


def test_machinery_report_round_trip():
    rep = run(load_preset("diag-x1sq"), points=3)
    assert from_canonical(to_canonical(rep)) == rep


def test_machinery_only_scene_ignores_its_j():
    # a machinery-only scene with a declared J reports exactly what the same
    # scene without the J line reports: no side b, no product_fibers row
    text = PRESETS["example33"].replace("[source]", "machinery_only = true\n[source]", 1)
    without_j = text.replace("J = canonical\n", "")
    assert without_j != text and "machinery_only = true" in text
    rep = run(load_scene_text(text), points=4)
    assert to_canonical(rep) == to_canonical(run(load_scene_text(without_j), points=4))
    assert rep.machinery_only and rep.kahler_verified is None and rep.exit_code == 0
    assert "product_fibers" not in rep.reports
    for name, reps in rep.reports.items():
        if not name.startswith("sff_identity"):
            assert all(r.residual_b is None and r.verdict_b == "inconclusive" for r in reps), name


def test_disagreement_exit_code(monkeypatch, capsys):
    # wire a checker that reports holds-vs-fails and confirm exit 4 plus the
    # offending point on stderr
    import confsub.theorems as theorems

    def broken(group, tol):
        return [[
            theorems.ConditionReport(
                name="broken",
                residual_a=0.0,
                residual_b=1.0,
                tolerance=tol.theorem,
            )
            for _ in group.points
        ]]

    spec = theorems.CheckerSpec("broken", broken, needs_j=False, kahler_gated=False)
    monkeypatch.setitem(theorems.CHECKERS, "broken", spec)
    code = main(["check", "linproj42", "--points", "2", "--only", "broken"])
    captured = capsys.readouterr()
    assert code == 4
    assert "disagreement: broken at" in captured.err


def test_runner_only_filter():
    rep = run(load_preset("linproj42"), points=2, only=["tension_formula"])
    assert set(rep.reports) == {"tension_formula"}
    assert rep.exit_code == 0


# ---------------------------------------------------------------------------
# input contract: every bad input ends in a documented exit code


DOMAIN_SCENE = """
name = domain
[source]
dim = 2
metric = euclidean
[target]
dim = 1
metric = euclidean
[map]
F 1 = {map}
[sampling]
box = {box}
count = 4
seed = 1
"""


@pytest.mark.parametrize(
    "map_text, box, subexpr",
    [
        ("log(x1)", "-1 1, -1 1", "'log(x1)'"),
        ("exp(2000*x1)", "0.5 1, -1 1", "'exp(2000.0 * x1)'"),  # OverflowError in exp
        ("x1^1000", "3 4, -1 1", "'x1^1000.0'"),  # OverflowError in a power
        ("sqrt(log(x1))", "-1 1, -1 1", "'log(x1)'"),  # only the innermost failing subexpression
        # a non-finite argument is an overflow too, not Python's "math domain error"
        ("sin(x1*1e200*1e200)", "0.5 1, -1 1",
         "numerical overflow in subexpression 'sin(x1 * 1e+200 * 1e+200)'"),
    ],
    ids=["log", "exp-overflow", "pow-overflow", "nested", "sin-overflow"],
)
def test_domain_error_exit_code(tmp_path, map_text, box, subexpr):
    f = tmp_path / "domain.scene"
    f.write_text(DOMAIN_SCENE.format(map=map_text, box=box))
    code, _, err = run_cli("check", str(f))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("scene error:")
    assert subexpr in err and "at point (" in err
    assert err.count("in subexpression") == 1
    assert "Traceback" not in err


def test_frame_pass_overflow_exit_code(tmp_path):
    # the squared gradient norms overflow: a scene error, not a dropped Gram-Schmidt seed
    f = tmp_path / "overflow.scene"
    f.write_text((REPO / "bench" / "scenes" / "anti-toy.txt").read_text().replace(
        "F 1 = x1\n", "F 1 = (x1) * 1e200\n"))
    code, _, err = run_cli("check", str(f))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("scene error: numerical overflow") and "at point (" in lines[0]


def test_report_row_overflow_exit_code(tmp_path):
    # the pass stays finite, but a derivative a checker builds later overflows
    # and its row reads ra = inf at the first sample point: a scene error
    text = (REPO / "bench" / "scenes" / "conformal-surface.txt").read_text().replace(
        "F 1 = x1\n", "F 1 = (x1) * 5e153\n")
    f = tmp_path / "overflow.scene"
    f.write_text(text)
    code, _, err = run_cli("check", str(f), "--points", "4", "--seed", "1")
    assert code == 2
    first = tuple(float(x) for x in sample_points(load_scene_text(text), count=4, seed=1)[0])
    # the checkers' floating-point warnings are suppressed: the scene error is the only line
    assert err == f"scene error: numerical overflow in jd2_mu_totally_geodesic at point {first}\n"


TOY = """name = toy
[source]
dim = 2
metric = euclidean
[target]
dim = 1
metric = euclidean
[map]
F 1 = x1 + x2
[sampling]
box = -1 1, -1 1
count = 4
seed = 1
"""
EUCLIDEAN_PLANE = "dim = 2\nmetric = euclidean"
# (old, new) edit of TOY, None for a file that cannot be read, and the message of its scene error
SCENE_ERRORS = {
    "interval-form": (("box = -1 1, -1 1", "box = -1 1, -1"), "line 11: interval must be 'lo hi', got '-1'"),
    "empty-interval": (("box = -1 1, -1 1", "box = -1 1, 1 1"), "line 11: empty interval '1 1'"),
    "exclude-form": (("seed = 1", "seed = 1\nexclude = x1 near 0"),
                     r"line 14: exclusion must be 'x<i> mod\|eq <value>', got 'x1 near 0'"),
    "exclude-name": (("seed = 1", "seed = 1\nexclude = y1 eq 0"), "line 14: bad coordinate 'y1' in exclusion"),
    "exclude-range": (("seed = 1", "seed = 1\nexclude = x3 eq 0"), "line 14: exclusion coordinate x3 out of range"),
    "exclude-value": (("seed = 1", "seed = 1\nexclude = x1 eq zero"),
                      "line 14: exclusion value must be a number, got 'zero'"),
    "exclude-modulus": (("seed = 1", "seed = 1\nexclude = x1 mod 0"), "line 14: modulus must be positive"),
    "exclude-infinite-modulus": (("seed = 1", "seed = 1\nexclude = x1 mod inf"),
                                 "line 14: exclusion value must be finite, got 'inf'"),
    "exclude-infinite-value": (("seed = 1", "seed = 1\nexclude = x1 eq -inf"),
                               "line 14: exclusion value must be finite, got '-inf'"),
    "exclude-nan-value": (("seed = 1", "seed = 1\nexclude = x1 eq nan"),
                          "line 14: exclusion value must be finite, got 'nan'"),
    "infinite-box": (("box = -1 1, -1 1", "box = -inf inf, -1 1"),
                     "line 11: interval width must be finite, got '-inf inf'"),
    "overflowing-box": (("box = -1 1, -1 1", "box = -1 1, -1e308 1e308"),
                        "line 11: interval width must be finite, got '-1e308 1e308'"),
    "nan-box": (("box = -1 1, -1 1", "box = nan 1, -1 1"), "line 11: interval width must be finite, got 'nan 1'"),
    "metric-shorthand": ((EUCLIDEAN_PLANE, "dim = 2\nmetric = flat"), "line 4: unknown metric shorthand 'flat'"),
    "j-shorthand": ((EUCLIDEAN_PLANE, EUCLIDEAN_PLANE + "\nJ = holomorphic"),
                    "line 5: unknown J shorthand 'holomorphic'"),
    "entry-index": ((EUCLIDEAN_PLANE, "dim = 2\ng 1 1 = 1\ng 3 3 = 1"),
                    r"line 5: entry index \(3,3\) out of range for dim 2"),
    "component-index": (("F 1 = x1 + x2", "F 2 = x1 + x2"), "line 9: component index 2 out of range for target dim 1"),
    "component-count": (("[target]\ndim = 1", "[target]\ndim = 2"), r"\[map\] needs 2 components, got 1"),
    "missing-dim": ((EUCLIDEAN_PLANE, "metric = euclidean"), r"missing 'dim' in \[source\]"),
    "boolean": (("name = toy", "name = toy\nmachinery_only = maybe"), "line 2: expected a boolean, got 'maybe'"),
    "unreadable": (None, r"cannot read scene file: \[Errno 2\] No such file or directory: '.*missing\.scene'"),
    "count-above-maximum": (("count = 4", "count = 99999999999999999999999"),
                            "line 12: bad count '99999999999999999999999': expected a positive integer up to 100000"),
    "sampling-exhausted": (("seed = 1", "seed = 1\nexclude = x1 mod 0.001"),
                           "sampling exhausted for scene 'toy': excluded loci reject too many points"),
}


@pytest.mark.parametrize("name", sorted(SCENE_ERRORS))
def test_scene_errors_exit_2_with_their_message(tmp_path, name):
    edit, message = SCENE_ERRORS[name]
    f = tmp_path / "missing.scene"
    if edit is not None:
        f.write_text(TOY.replace(*edit, 1))
        assert f.read_text() != TOY
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", str(f)])
    assert code == 2
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and re.fullmatch(f"scene error: {message}", lines[0]), lines


def test_scene_file_not_utf8_is_a_scene_error(tmp_path):
    f = tmp_path / "latin1.scene"
    f.write_bytes(TOY.replace("name = toy", "name = toy\xff").encode("latin-1"))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", str(f)])
    assert code == 2
    assert err.getvalue().splitlines() == [
        "scene error: cannot read scene file: 'utf-8' codec can't decode byte 0xff in position 10: "
        "invalid start byte"]


# the target metric's eigenvalue ratio is 1e-13, and the second component is
# scaled by 1e13^(1/2) so that the map is still conformal with dilation 1
THIN_TARGET = """
name = thin-target
[source]
dim = 3
metric = euclidean
[target]
dim = 2
g 1 1 = 1
g 2 2 = 1e-13
[map]
F 1 = x1
F 2 = 3162277.6601683795*x2
[sampling]
box = -1 1, -1 1, -1 1
count = 4
seed = 1
"""


INDEFINITE_SOURCE = """
name = indefinite-source
[source]
dim = 2
g 1 1 = 1
g 2 2 = 0 - 1
[target]
dim = 1
metric = euclidean
[map]
F 1 = x1
[sampling]
box = -1 1, -1 1
count = 4
seed = 1
"""


def _structural_failure(tmp_path, text) -> str:
    """The one stderr line of a check of the scene, the same in both modes, which exit 3."""
    # the metrics and J are validated in the frame pass, so a structure-only run rejects them too
    f = tmp_path / "structure.scene"
    f.write_text(text)
    runs = [run_cli("check", str(f), *mode) for mode in ((), ("--structure-only",))]
    for code, _, err in runs:
        assert code == 3
        assert len(err.strip().splitlines()) == 1
    assert runs[0][2] == runs[1][2]
    return runs[0][2].strip()


def _first_point(text) -> tuple[float, ...]:
    return tuple(float(x) for x in sample_points(load_scene_text(text))[0])


def test_degenerate_target_metric_fails_both_modes(tmp_path):
    # the error names the metric, the sample point and its image
    err = _structural_failure(tmp_path, THIN_TARGET)
    x1, x2, _ = p = _first_point(THIN_TARGET)
    image = (x1, 3162277.6601683795 * x2)
    assert err == (f"structural failure: target metric not positive definite at {p}, "
                   f"image point {image}: eigs [1.e-13 1.e+00]")


def test_indefinite_source_metric_fails_both_modes(tmp_path):
    err = _structural_failure(tmp_path, INDEFINITE_SOURCE)
    p = _first_point(INDEFINITE_SOURCE)
    assert err == f"structural failure: source metric not positive definite at {p}: eigs [-1.  1.]"


# the canonical J scaled by 1/2: J^2 = -I/4, so J is not almost Hermitian
HALF_J = """
name = half-j
[source]
dim = 4
metric = euclidean
J 1 2 = 0 - 0.5
J 2 1 = 0.5
J 3 4 = 0 - 0.5
J 4 3 = 0.5
[target]
dim = 2
metric = euclidean
[map]
F 1 = x1
F 2 = x2
[sampling]
box = -1 1, -1 1, -1 1, -1 1
count = 4
seed = 1
"""


def test_invalid_complex_structure_fails_both_modes(tmp_path):
    # J is validated before the splitting reads it, which would call the split ambiguous
    err = _structural_failure(tmp_path, HALF_J)
    p = _first_point(HALF_J)
    assert err == (f"structural failure: complex structure invalid at {p}: "
                   "J^2 residual 7.500e-01, compatibility residual 7.500e-01")


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_cli_tolerance_rejected(value):
    code, _, err = run_cli("check", "linproj42", "--points", "2", f"--tol={value}")
    assert code == 2
    assert "theorem tolerance must be a finite number > 0" in err


def test_only_the_theorem_tolerance_is_settable():
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["theorem"]
    with pytest.raises(TypeError):
        Tolerances(drop=1e-3)
    assert DEFAULT_TOLERANCES.structural == 1e-9 and DEFAULT_TOLERANCES.kahler == 1e-9


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_scene_tolerance_rejected(tmp_path, value):
    f = tmp_path / "tol.scene"
    scene = DOMAIN_SCENE.format(map="x1", box="-1 1, -1 1")
    f.write_text(scene + f"[tolerances]\ntheorem = {value}\n")
    code, _, err = run_cli("check", str(f))
    assert code == 2
    assert "bad tolerance" in err and "finite number > 0" in err
