import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsub import submersion
from confsub.cli import main
from confsub.config import DEFAULT_TOLERANCES as TOL
from confsub.errors import StructureError
from confsub.expr import raise_first
from confsub.report import RunReport
from confsub.runner import run
from confsub.scenes import load_preset, load_scene_text, sample_points
from confsub.submersion import AdaptedFrame
from confsub.theorems import (
    CHECKERS,
    ConditionReport,
    _group_rows,
    check_d2_integrable,
    check_harmonicity,
    check_jd2_mu_totally_geodesic,
    check_tension_formula,
    check_totally_geodesic_characterization,
    check_vertical_totally_geodesic,
    verdict_of,
)

from .conftest import SCENES_WITH_GENERIC, entries, fresh_scene, points, reports_at

J_PRESETS = ("example33", "linproj42", "holo4", "linproj63")


def all_reports(name, count=6):
    """(point, report) for every report row of every checker at the sample points of a preset."""
    out = []
    for p, (g, k) in zip(points(name, count), entries(name, count=count)):
        for spec in CHECKERS.values():
            out.extend((p, r) for r in reports_at(spec.func, (g, k), TOL))
    return out


def test_side_a_never_reads_the_adapted_frame(monkeypatch):
    # side a has its own route (brackets of the frame jets, nabla of the pass's
    # frames, the sff from dF): if omega fed both sides, each equivalence would
    # be an identity of one table, and a connection bug would move both sides
    # together; garbage in omega and dJ must leave every ra bit for bit
    def residuals():
        out = {}
        for name in SCENES_WITH_GENERIC:
            sc = fresh_scene(name)
            if sc.source.complex_structure is None:
                continue
            _, groups = sc.fmap.frame_pass(sample_points(sc, count=4, seed=2))
            for _, g in groups:
                for spec in CHECKERS.values():
                    for row in _group_rows(spec.func, g, TOL):
                        out.setdefault((name, row[0].name), []).extend((r.residual_a, r.residual_b) for r in row)
        return out

    before = residuals()
    shape = lambda E: E.shape[:2] + E.shape[1:2] * 2  # (N, D, D, D)
    garbage = property(lambda self: np.random.default_rng(11).normal(size=shape(self.E.v)))
    monkeypatch.setattr(AdaptedFrame, "omega", garbage)
    monkeypatch.setattr(AdaptedFrame, "dJ", garbage)
    after = residuals()
    assert before.keys() == after.keys()
    for key in before:
        assert [a for a, _ in before[key]] == [a for a, _ in after[key]], key
    moved = {key for key in before if [b for _, b in before[key]] != [b for _, b in after[key]]}
    assert {name for name, _ in moved} >= {"example33", "linproj63", "anti-toy", "generic-hermitian"}


@pytest.mark.parametrize("preset", J_PRESETS)
def test_soundness_all_checkers_agree(preset):
    for point, r in all_reports(preset):
        assert r.agree or r.vacuous, (
            f"{r.name} at {point}: ra={r.residual_a} ({r.verdict_a}) "
            f"vs rb={r.residual_b} ({r.verdict_b})"
        )


def test_d2_integrability_residuals():
    # unconditional integrability: bracket residual stays at rounding level
    for preset in ("example33", "linproj63"):
        for e in entries(preset, count=6):
            for r in reports_at(check_d2_integrable, e, TOL):
                assert r.residual_a < 1e-8
                assert r.residual_b == 0.0


def test_d2_integrability_vacuous_when_small():
    for e in entries("holo4", count=2):
        (r,) = reports_at(check_d2_integrable, e, TOL)
        assert r.vacuous and r.verdict_a == "holds"


def test_example_fails_homothety_on_both_sides():
    # the exponential-dilation scene is conformal but not horizontally homothetic,
    # and both sides of the geodesic characterizations detect it together
    for e in entries("example33", count=4):
        (r,) = reports_at(check_jd2_mu_totally_geodesic, e, TOL)
        assert r.verdict_a == "fails" and r.verdict_b == "fails" and r.agree
        (r2,) = reports_at(check_totally_geodesic_characterization, e, TOL)
        assert r2.verdict_a == "fails" and r2.verdict_b == "fails" and r2.agree


def test_linear_projection_totally_geodesic():
    for e in entries("linproj42", count=3):
        (r,) = reports_at(check_totally_geodesic_characterization, e, TOL)
        assert r.verdict_a == "holds" and r.verdict_b == "holds"
        assert r.residual_a < 1e-12


def test_tension_formula_residuals():
    for preset in ("example33", "holo4", "linproj42", "linproj63"):
        for e in entries(preset, count=4):
            (r,) = reports_at(check_tension_formula, e, TOL)
            assert r.residual_a < 1e-7, preset
            assert r.residual_b == 0.0 and r.verdict_b == "holds"  # the identity's claim


def test_identity_rows_catch_a_sign_error_in_oneills_a(monkeypatch):
    # side b of an identity row states the identity, so an A tensor of the wrong
    # sign fails sff_identity_mixed on side a only: a disagreement, exit 4
    a = submersion._Group.a
    monkeypatch.setattr(submersion._Group, "a", property(lambda g: -a.func(g)))
    for name in ("twisted4", "generic-metric"):
        rep = run(fresh_scene(name), points=8, seed=1)
        assert rep.exit_code == 4, name
        assert {r.name for _, r in rep.disagreements()} == {"sff_identity_mixed"}, name


def test_harmonicity_branches():
    for e in entries("example33", count=2):
        (r,) = reports_at(check_harmonicity, e, TOL)
        assert "minimal-fibers-iff-harmonic" in r.label
        assert r.verdict_a == "holds" and r.verdict_b == "holds"
    for e in entries("linproj63", count=2):
        (r,) = reports_at(check_harmonicity, e, TOL)
        assert "paired-implications" in r.label
        assert r.verdict_a == "holds"


def test_vertical_geodesic_direct_fails_on_curved_fibers():
    for e in entries("diag-x1sq", count=4):
        (r,) = reports_at(check_vertical_totally_geodesic, e, TOL)
        assert r.residual_b is None
        assert r.verdict_a == "fails"  # fibers curve away, residual ~ 1/x1
        assert r.residual_a > 10 * TOL.theorem
        assert "no complex structure" in r.label
        assert r.agree


def test_anti_holomorphic_corollaries_run_only_on_anti_holomorphic():
    for e in entries("example33", count=2):
        names = {r.name: r for spec in (CHECKERS["corollaries"],)
                 for r in reports_at(spec.func, e, TOL)}
        assert names["antiholomorphic_integrability"].residual_b is not None
        assert names["antiholomorphic_integrability"].agree
    for e in entries("holo4", count=2):
        names = {r.name: r for r in reports_at(CHECKERS["corollaries"].func, e, TOL)}
        assert "not anti-holomorphic" in names["antiholomorphic_integrability"].label
    for e in entries("linproj63", count=2):
        names = {r.name: r for r in reports_at(CHECKERS["corollaries"].func, e, TOL)}
        # proper case: both parallel-hypothesis corollaries run and agree
        assert names["d2_parallel_homothety"].residual_b is not None
        assert names["d2_parallel_homothety"].verdict_a == "holds"
        assert names["mu_parallel_dilation"].verdict_a == "holds"
        assert not names["mu_parallel_dilation"].vacuous


def test_vacuity_of_dilation_characterizations():
    for preset in ("example33", "holo4"):
        for e in entries(preset, count=1):
            names = {r.name: r for r in reports_at(CHECKERS["corollaries"].func, e, TOL)}
            assert names["d2_parallel_homothety"].vacuous
            assert names["mu_parallel_dilation"].vacuous


def test_kahler_gate_withholds_verdicts():
    scene = load_scene_text(
        """
name = conformal4
[source]
dim = 4
g 1 1 = exp(2*x1)
g 2 2 = exp(2*x1)
g 3 3 = exp(2*x1)
g 4 4 = exp(2*x1)
J = canonical
[target]
dim = 2
metric = euclidean
[map]
F 1 = x1
F 2 = x2
[sampling]
box = -0.5 0.5, -0.5 0.5, -0.5 0.5, -0.5 0.5
count = 4
seed = 3
"""
    )
    rep = run(scene)
    assert rep.kahler_verified is False
    assert rep.exit_code == 5
    assert rep.warnings
    for name, reports in rep.reports.items():
        for r in reports:
            if name.startswith("sff_identity"):
                assert r.residual_b is not None  # conformal identities are not gated
            else:
                assert r.residual_b is None
                assert "Kaehler" in r.label


# ---------------------------------------------------------------------------
# report mechanics


def test_verdict_bands():
    assert verdict_of(1e-7, 1e-6) == "holds"
    assert verdict_of(5e-6, 1e-6) == "inconclusive"
    assert verdict_of(2e-5, 1e-6) == "fails"


@given(
    st.floats(min_value=0, max_value=1.0, allow_nan=False),
    st.floats(min_value=1e-9, max_value=1e-3),
    st.floats(min_value=1.0, max_value=100.0),
)
@settings(max_examples=100, deadline=None)
def test_verdicts_monotone_in_tolerance(residual, tol, factor):
    # growing the tolerance can never flip holds into fails
    before = verdict_of(residual, tol)
    after = verdict_of(residual, tol * factor)
    assert not (before == "holds" and after == "fails")
    if before == "holds":
        assert after == "holds"


def test_report_agreement_rule():
    base = dict(
        name="x",
        tolerance=1e-6,
    )
    r = ConditionReport(residual_a=0.0, residual_b=1.0, **base)
    assert not r.agree
    r2 = ConditionReport(
        residual_a=0.0,
        residual_b=1.0,
        vacuous=True,
        **base,
    )
    # a vacuous report carries no claim: only the disagreeing one gates the run
    report = RunReport("x", "0", 1, 1, 1e-6, False, None, reports={"x": [r, r2]})
    assert report.disagreements() == [(0, r)]


def test_split_that_does_not_add_up_fails_its_point(monkeypatch, capsys):
    # example33 splits as (d1, d2, jd2, mu) = (2, 2, 2, 0) against 4 vertical
    # and 2 horizontal directions.  Here the d2 frame loses its last row: J(d2)
    # follows it and mu takes the horizontal direction left over, so every
    # frame is orthonormal, |J(d2)| = |d2|, and |d1| + |d2| falls one short
    gram_schmidt, built_against = submersion._gram_schmidt, []

    def lossy(G, seeds, drop, against=None, fail=raise_first):
        out = gram_schmidt(G, seeds, drop, against=against, fail=fail)
        if against is not None and any(seeds is x for x in built_against):  # d2: the vertical frame against d1
            out = out.rows(np.arange(out.v.shape[1] - 1))
        if against is not None:  # the vertical frame is the first of these
            built_against.append(out)
        return out

    monkeypatch.setattr(submersion, "_gram_schmidt", lossy)
    sc = load_preset("example33")
    pts = sample_points(sc, count=3, seed=1)
    want = "split dims (2, 1, 1, 1) do not add up to 4 vertical and 2 horizontal at {}"
    errors, groups = sc.fmap.frame_pass(pts)
    assert not groups
    for e, p in zip(errors, pts):
        assert isinstance(e, StructureError) and str(e) == want.format(tuple(float(x) for x in p))
    assert main(["check", "example33", "--points", "3", "--seed", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"structural failure: {want.format(tuple(float(x) for x in pts[0]))}\n"


CONFORMAL_SURFACE = """
name = conformal-surface
[source]
dim = 2
g 1 1 = exp(2*x1)
g 2 2 = exp(2*x1)
J = canonical
[target]
dim = 1
metric = euclidean
[map]
F 1 = x1
[sampling]
box = -0.8 0.8, -0.8 0.8
count = 8
seed = 13
"""


def test_curved_kahler_surface_scene():
    # a conformal surface is automatically Kaehler; the verification runs with
    # curved connection coefficients, a nonzero T tensor and a nonzero
    # dilation gradient, and every two-sided checker still agrees
    scene = load_scene_text(CONFORMAL_SURFACE)
    rep = run(scene)
    assert rep.exit_code == 0
    assert rep.kahler_verified is True
    assert not rep.disagreements()
    # coordinate projections are harmonic for conformal surface metrics and
    # the tension formula balances two nonzero terms exactly
    for r in rep.reports["harmonicity"]:
        assert r.verdict_a == "holds" and r.verdict_b == "holds"
        assert "paired-implications" in r.label
    for r in rep.reports["tension_formula"]:
        assert r.residual_a < 1e-7
    # the fibers genuinely curve: direct and characterized residuals both fail
    for r in rep.reports["vertical_totally_geodesic"]:
        assert r.verdict_a == "fails" and r.verdict_b == "fails"
        assert abs(r.residual_a - r.residual_b) < 1e-9


TWISTED4 = """
name = twisted4
[source]
dim = 4
metric = euclidean
J = canonical
[target]
dim = 2
metric = euclidean
[map]
F 1 = x1 + x3^2 - x4^2
F 2 = x2 + 2*x3*x4
[sampling]
box = -1 1, -1 1, 0.2 1, 0.2 1
count = 8
seed = 21
"""


def test_twisted_holomorphic_scene():
    # holomorphic-type kernel over flat space, but the horizontal distribution
    # is non-integrable and the fibers curve: every two-sided residual is
    # nonzero and the independently computed sides still coincide
    rep = run(load_scene_text(TWISTED4))
    assert rep.exit_code == 0
    assert rep.kahler_verified is True
    assert not rep.disagreements()
    for r in rep.reports["horizontal_integrability"]:
        assert r.verdict_a == "fails" and r.verdict_b == "fails"
        assert abs(r.residual_a - r.residual_b) < 1e-9
    for r in rep.reports["horizontal_totally_geodesic"]:
        assert r.verdict_a == "fails"
        assert abs(r.residual_a - r.residual_b) < 1e-9
    # harmonic map with minimal (yet not totally geodesic) fibers
    for r in rep.reports["harmonicity"]:
        assert r.residual_a < 1e-12 and r.residual_b < 1e-12
    for r in rep.reports["vertical_totally_geodesic"]:
        assert r.verdict_a == "fails" and r.agree


# linproj63 composed with the Moebius inversion y -> y/|y|^2 of the target,
# y = (x1 + 3, x2 + 3, x3 + 3): horizontally conformal with the same kernel and
# dilation 1/|y|^2, so the dilation is not constant along the horizontal space
MOEBIUS63 = """
name = moebius63
[source]
dim = 6
metric = euclidean
J = canonical
[target]
dim = 3
metric = euclidean
[map]
F 1 = (x1 + 3)/((x1 + 3)^2 + (x2 + 3)^2 + (x3 + 3)^2)
F 2 = (x2 + 3)/((x1 + 3)^2 + (x2 + 3)^2 + (x3 + 3)^2)
F 3 = (x3 + 3)/((x1 + 3)^2 + (x2 + 3)^2 + (x3 + 3)^2)
[sampling]
box = -1 1, -1 1, -1 1, -1 1, -1 1, -1 1
count = 8
seed = 7
"""

# the equivalences whose two sides the witness must see fail together
MOEBIUS_FAILS = (
    "homothety_characterization",
    "harmonicity",
    "jd2_mu_totally_geodesic",
    "totally_geodesic_characterization",
    "d2_parallel_homothety",
    "mu_parallel_dilation",
)


def test_moebius_witness_fails_on_both_sides():
    rep = run(load_scene_text(MOEBIUS63))
    assert rep.exit_code == 0
    assert len(rep.structure) == 8
    for row in rep.structure:
        assert row.dims == (2, 1, 1, 2)
        y_sq = sum((x + 3.0) ** 2 for x in row.point[:3])
        assert row.lam * y_sq == pytest.approx(1.0, rel=1e-12, abs=0.0)
    for name in MOEBIUS_FAILS:
        assert len(rep.reports[name]) == 8, name
        for row, r in zip(rep.structure, rep.reports[name], strict=True):
            assert (r.verdict_a, r.verdict_b) == ("fails", "fails"), (name, row.point)


ANTI_INVARIANT_TOY = """
name = anti-toy
[source]
dim = 6
metric = euclidean
J = canonical
[target]
dim = 4
metric = euclidean
[map]
F 1 = x1
F 2 = x2
F 3 = x3
F 4 = x5
[sampling]
box = -1 1, -1 1, -1 1, -1 1, -1 1, -1 1
count = 6
seed = 9
"""


def test_fully_anti_invariant_kernel():
    # the kernel contains no invariant directions: d1 = 0 and the
    # anti-invariant bracket test runs non-vacuously
    scene = load_scene_text(ANTI_INVARIANT_TOY)
    rep = run(scene)
    assert rep.exit_code == 0
    assert not rep.disagreements()
    assert all(row.dims == (0, 2, 2, 2) for row in rep.structure)
    for r in rep.reports["d2_integrability"]:
        assert not r.vacuous
        assert r.residual_a < 1e-8
    for r in rep.reports["d1_integrability"]:
        assert r.vacuous
    # proper mu and d2: the parallelism corollaries run with real hypotheses
    for r in rep.reports["mu_parallel_dilation"]:
        assert not r.vacuous and r.agree
