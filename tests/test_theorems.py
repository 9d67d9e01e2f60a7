import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsub.config import DEFAULT_TOLERANCES as TOL
from confsub.errors import BookkeepingError
from confsub.report import RunReport
from confsub.runner import run
from confsub.scenes import load_scene_text
from confsub.submersion import bookkeeping
from confsub.theorems import (
    CHECKERS,
    ConditionReport,
    check_d2_integrable,
    check_harmonicity,
    check_jd2_mu_totally_geodesic,
    check_tension_formula,
    check_totally_geodesic_characterization,
    check_vertical_totally_geodesic,
    verdict_of,
)

from .conftest import entries, reports_at

J_PRESETS = ("example33", "linproj42", "holo4", "linproj63")


def all_reports(name, count=6):
    out = []
    for e in entries(name, count=count):
        for spec in CHECKERS.values():
            out.extend(reports_at(spec.func, e, TOL))
    return out


@pytest.mark.parametrize("preset", J_PRESETS)
def test_soundness_all_checkers_agree(preset):
    for r in all_reports(preset):
        assert r.agree or r.vacuous, (
            f"{r.name} at {r.point}: ra={r.residual_a} ({r.verdict_a}) "
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
    assert run(scene, hypothesis_ok=True).exit_code == 0


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
        point=(0.0,),
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
    assert report.disagreements() == [r]


def test_dimension_bookkeeping_validation():
    m, n, r = bookkeeping((2, 2, 2, 0), 6, 2)  # (m, n, r) = (1, 2, 0)
    assert (m, n, r) == (1, 2, 0)
    assert 2 * m + n == 4  # fiber dimension
    with pytest.raises(BookkeepingError):
        bookkeeping((2, 2, 2, 0), 6, 3)
    with pytest.raises(BookkeepingError):
        bookkeeping((2, 0, 0, 2), 6, 2)  # (m, n, r) = (1, 0, 1)


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
        for r in rep.reports[name]:
            assert (r.verdict_a, r.verdict_b) == ("fails", "fails"), (name, r.point)


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
