"""Report rows shared by points, structure rows held as columns, and the canonical writer
that formats each shared row once and each structure column with one `repr`."""

from types import SimpleNamespace

import numpy as np
import pytest

from confsub.report import RunReport, StructureRow, StructureTable, from_canonical, to_canonical
from confsub.runner import run
from confsub.scenes import load_preset
from confsub.theorems import ConditionReport, _reports


def reference_canonical(report: RunReport) -> str:
    """The canonical text written field by field, row by row, with one `repr` per float written."""
    num = lambda v: "-" if v is None else repr(float(v))
    sep = " | "
    points = [",".join(repr(float(x)) for x in row.point) for row in report.structure]
    kahler = "-" if report.kahler_verified is None else int(report.kahler_verified)
    lines = ["confsub-report = 1", f"scene = {report.scene}", f"engine = {report.engine_version}",
             f"seed = {report.seed}", f"count = {report.count}", f"tol.theorem = {num(report.theorem_tolerance)}",
             f"machinery_only = {int(report.machinery_only)}", f"kahler_verified = {kahler}",
             f"exit = {report.exit_code}", "[structure]"]
    for i, (row, point) in enumerate(zip(report.structure, points)):
        dims = "-" if row.dims is None else ",".join(str(d) for d in row.dims)
        lines.append(sep.join([str(i), f"point={point}", f"lambda={num(row.lam)}", f"dims={dims}",
                               f"conformality={num(row.conformality_residual)}",
                               f"kahler={num(row.kahler_residual)}"]))
    for name, rows in report.reports.items():
        lines.append(f"[checker {name}]")
        for i, (r, point) in enumerate(zip(rows, points, strict=True)):
            lines.append(sep.join([str(i), f"point={point}", f"ra={num(r.residual_a)}", f"rb={num(r.residual_b)}",
                                   f"va={r.verdict_a}", f"vb={r.verdict_b}", f"agree={int(r.agree)}",
                                   f"vacuous={int(r.vacuous)}", f"tol={num(r.tolerance)}", f"label={r.label}"]))
    lines.append("[aggregates]")
    for name, rows in report.reports.items():
        rbs = [r.residual_b for r in rows if r.residual_b is not None]
        lines.append(sep.join([name, f"n={len(rows)}", f"max_ra={num(max(r.residual_a for r in rows))}",
                               f"max_rb={num(max(rbs) if rbs else None)}",
                               f"agree={sum(r.agree for r in rows)}/{len(rows)}",
                               f"vacuous={sum(r.vacuous for r in rows)}"]))
    lines += ["[skipped]", *(f"{name}{sep}{reason}" for name, reason in report.skipped), "[warnings]",
              *report.warnings, "[end]"]
    return "\n".join(lines) + "\n"


def test_a_constant_scene_builds_one_report_per_row(monkeypatch):
    # linproj42's metrics, J and differential are constant, so every row has one
    # value at all 24 points: the check builds 21 reports, not 21 per point
    built = []
    init = ConditionReport.__init__
    monkeypatch.setattr(ConditionReport, "__init__", lambda self, *args, **kw: built.append(init(self, *args, **kw)))
    rep = run(load_preset("linproj42"), points=24)
    assert rep.exit_code == 0 and rep.count == 24
    assert len(built) == len(rep.reports) == 21
    for rows in rep.reports.values():
        assert len(rows) == 24 and all(r is rows[0] for r in rows)


def test_signed_zeros_are_not_shared():
    # 0.0 and -0.0 compare and hash equal, but are written apart
    plus, minus = _reports("row", SimpleNamespace(points=[(0.0,), (1.0,)]), np.array([0.0, -0.0]), None, 1e-6)
    assert plus is not minus
    structure = [StructureRow(index=k, point=(float(k),), lam=1.0, dims=None, conformality_residual=0.0,
                              kahler_residual=None) for k in range(2)]
    report = RunReport("zeros", "0", 1, 2, 1e-6, True, None, structure, {"row": [plus, minus]})
    lines = to_canonical(report).splitlines()
    assert lines[lines.index("[checker row]") + 1].split(" | ")[2] == "ra=0.0"
    assert lines[lines.index("[checker row]") + 2].split(" | ")[2] == "ra=-0.0"


def test_writer_formats_shared_rows_like_the_reference():
    shared = ConditionReport("row", 2.5e-9, 1e-8, 1e-6, label="shared")
    rows = [
        ConditionReport("row", 0.0, 0.0, 1e-6, vacuous=True, label="vacuous"),
        ConditionReport("row", -0.0, None, 1e-6, label="withheld"),
        ConditionReport("row", np.float64(3.0e-4), np.float64(-0.0), 1e-6),
        shared, shared, shared,
    ]
    structure = [StructureRow(index=k, point=(0.1 * k, np.float64(-0.0), 1e-300), lam=np.float64(1.5),
                              dims=(2, 0, 0, 1), conformality_residual=-0.0 if k % 2 else 0.0,
                              kahler_residual=5e-324 if k == 5 else 1e-17)
                 for k in range(len(rows))]
    report = RunReport("writer", "0.1.0", 3, len(rows), 1e-6, False, True, structure, {"row": rows},
                       skipped=[("other", "no complex structure")], warnings=["a warning"], exit_code=4)
    text = to_canonical(report)
    assert text == reference_canonical(report)
    assert "ra=-0.0" in text and "rb=-0.0" in text and "conformality=-0.0" in text
    parsed = from_canonical(text)
    assert parsed == report
    assert to_canonical(parsed) == text

    # the same structure as a table and as a list of rows writes the same bytes, subnormals included
    lam = np.array([1.5, 5e-324, -0.0, 1e-300, 0.0, 2.0])
    conformality = np.array([0.0, -0.0, 5e-324, 1e-300, -5e-324, 0.0])
    kahler = np.array([1e-17, -0.0, 5e-324, 0.0, 1e-300, 2.5e-16])
    table = StructureTable(np.array([r.point for r in structure]), lam, conformality, kahler, (2, 0, 0, 1))
    listed = [StructureRow(index=k, point=row.point, lam=np.float64(lam[k]), dims=(2, 0, 0, 1),
                           conformality_residual=np.float64(conformality[k]), kahler_residual=kahler[k])
              for k, row in enumerate(structure)]
    as_table, as_rows = (RunReport("writer", "0.1.0", 3, len(rows), 1e-6, False, True, s, {"row": rows})
                         for s in (table, listed))
    text = to_canonical(as_table)
    assert text == to_canonical(as_rows) == reference_canonical(as_rows)
    assert "lambda=5e-324" in text and "kahler=-0.0" in text and "conformality=-5e-324" in text
    lines = text.splitlines()
    assert lines[lines.index("[structure]") + 6].endswith(" | kahler=2.5e-16")
    assert as_table == as_rows and from_canonical(text) == as_rows


def test_a_row_list_with_two_dims_is_refused():
    rows = [StructureRow(index=k, point=(0.0,), lam=1.0, dims=dims, conformality_residual=0.0, kahler_residual=0.0)
            for k, dims in enumerate([(0, 2, 2, 0), (2, 0, 0, 2)])]
    with pytest.raises(ValueError, match="different dims"):
        to_canonical(RunReport("dims", "0", 1, 2, 1e-6, False, True, rows))


def test_a_kahler_column_that_mixes_none_and_numbers_is_refused():
    rows = [StructureRow(index=k, point=(0.0,), lam=1.0, dims=(0, 2, 2, 0), conformality_residual=0.0,
                         kahler_residual=kah) for k, kah in enumerate([1e-17, None])]
    with pytest.raises(ValueError, match="only some have a Kaehler residual"):
        StructureTable.of(rows)
    full = [StructureRow(index=k, point=(0.0,), lam=1.0, dims=(0, 2, 2, 0), conformality_residual=0.0,
                         kahler_residual=1e-17) for k in range(2)]
    lines = to_canonical(RunReport("mixed", "0", 1, 2, 1e-6, False, True, full)).splitlines()
    at = lines.index("[structure]") + 2
    lines[at] = lines[at].replace("kahler=1e-17", "kahler=-")
    with pytest.raises(ValueError, match=rf"^line {at - 1}: structure rows of which only some"):
        from_canonical("\n".join(lines) + "\n")


def test_a_structure_only_check_builds_no_structure_row(monkeypatch):
    built = []
    init = StructureRow.__init__
    monkeypatch.setattr(StructureRow, "__init__", lambda self, *args, **kw: built.append(init(self, *args, **kw)))
    rep = run(load_preset("example33"), points=128, structure_only=True)
    text = to_canonical(rep)
    assert built == [] and len(rep.structure) == 128 and rep.exit_code == 0
    assert text.count(" | dims=") == 128
