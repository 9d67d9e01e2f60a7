"""Run reports: the structure table, per-checker condition reports, aggregates.

Two output formats: a human-readable table and a canonical structured text
with stable key order.  The canonical form contains no timestamps and uses
shortest round-trip float repr, so identical runs serialize byte-identically
and `from_canonical(to_canonical(r))` reproduces the report exactly; it
accepts only text that `to_canonical` writes, so a checker row whose verdicts
do not follow from its residuals, or an aggregate that does not follow from
the rows, is an error at its line.  Rows are numbered by position, there is
one structure row per sample point, and row k of every checker section is at
the point of structure row k, so a section with one row too many or too few
for the header's `count` is an error at its header.

The structure rows are held as columns (`StructureTable`), and the writer
formats each column with one `repr` of its list: `repr` of a list of floats
writes each element with `float.__repr__`.  A list of `StructureRow` values
is turned into a table first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest

import numpy as np

from .theorems import ConditionReport

__all__ = [
    "StructureRow",
    "StructureTable",
    "CheckerAggregate",
    "RunReport",
    "to_canonical",
    "from_canonical",
    "render_table",
]

_SEP = " | "


@dataclass(frozen=True)
class StructureRow:
    """The structure at one sample point, as a value: row `index` of a `StructureTable`.

    `index` is the row's position.  It is kept for the step-by-step replica of
    the runner in `bench/layers.py`, which builds its report from rows, until
    that replica is removed (ROADMAP item 1).
    """

    index: int
    point: tuple[float, ...]
    lam: float
    dims: tuple[int, int, int, int] | None  # (d1, d2, jd2, mu); None without J
    conformality_residual: float
    kahler_residual: float | None


class StructureTable:
    """The structure rows of a report as columns, one entry per sample point.

    `points` is the `(N, dim)` array of the sample points; `lam`,
    `conformality` and `kahler` hold the dilation, the conformality residual
    and the Kaehler residual at each.  `dims`, the split's (d1, d2, jd2, mu),
    is held once: the runner refuses points whose dims differ.  `kahler` and
    `dims` are None without a complex structure.
    `len`, `table[k]` and iteration give `StructureRow` values, and `==`
    compares a table with a table or a list of rows by those values.
    """

    __slots__ = ("points", "lam", "conformality", "kahler", "dims")

    def __init__(self, points, lam, conformality, kahler, dims):
        self.points, self.lam, self.conformality, self.kahler, self.dims = points, lam, conformality, kahler, dims

    @classmethod
    def of(cls, structure) -> "StructureTable":
        """`structure` if it is a table, else its rows as one.

        Rows that carry two dims, or of which only some have a Kaehler residual, are a ValueError.
        """
        if isinstance(structure, cls):
            return structure
        dims = {row.dims for row in structure}
        if len(dims) > 1:
            raise ValueError(f"structure rows carry different dims: {sorted(dims, key=str)}")
        return _table([row.point for row in structure], [row.lam for row in structure],
                      [row.conformality_residual for row in structure],
                      [row.kahler_residual for row in structure], dims.pop() if dims else None)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, k: int) -> StructureRow:
        k = range(len(self))[k]
        return StructureRow(index=k, point=tuple(self.points[k].tolist()), lam=float(self.lam[k]), dims=self.dims,
                            conformality_residual=float(self.conformality[k]),
                            kahler_residual=None if self.kahler is None else float(self.kahler[k]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (StructureTable, list)):
            return NotImplemented
        return list(self) == list(other)


def _table(points: list, lam: list, conformality: list, kahler: list, dims) -> StructureTable:
    """The table of these columns of rows; a Kaehler column that is all None is None as a whole.

    A Kaehler column that mixes None and numbers is a ValueError: with J every point has a
    Kaehler residual, and without J none has.
    """
    missing = [k is None for k in kahler]
    if any(missing) and not all(missing):
        raise ValueError("structure rows of which only some have a Kaehler residual")
    return StructureTable(np.array(points, dtype=float), np.array(lam, dtype=float),
                          np.array(conformality, dtype=float), None if all(missing) else np.array(kahler, float),
                          dims)


@dataclass(frozen=True)
class CheckerAggregate:
    name: str
    total: int
    max_residual_a: float
    max_residual_b: float | None
    agree_count: int
    vacuous_count: int

    @classmethod
    def from_reports(cls, name: str, reports: list[ConditionReport]) -> "CheckerAggregate":
        rbs = [r.residual_b for r in reports if r.residual_b is not None]
        return cls(
            name=name,
            total=len(reports),
            max_residual_a=max((r.residual_a for r in reports), default=0.0),
            max_residual_b=max(rbs) if rbs else None,
            agree_count=sum(1 for r in reports if r.agree),
            vacuous_count=sum(1 for r in reports if r.vacuous),
        )

@dataclass
class RunReport:
    scene: str
    engine_version: str
    seed: int
    count: int
    theorem_tolerance: float
    machinery_only: bool
    kahler_verified: bool | None  # None when there is no complex structure
    structure: StructureTable | list[StructureRow] = field(default_factory=list)
    reports: dict[str, list[ConditionReport]] = field(default_factory=dict)
    skipped: list[tuple[str, str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    exit_code: int = 0

    def aggregates(self) -> list[CheckerAggregate]:
        return [
            CheckerAggregate.from_reports(name, reps) for name, reps in self.reports.items()
        ]

    def disagreements(self) -> list[tuple[int, ConditionReport]]:
        """(k, report) for each non-vacuous row whose sides disagree; k is its structure row."""
        return [
            (k, r)
            for reps in self.reports.values()
            for k, r in enumerate(reps)
            if not (r.agree or r.vacuous)
        ]


# ---------------------------------------------------------------------------
# Canonical text


def _fnum(v: float | None) -> str:
    return "-" if v is None else repr(float(v))


def _pnum(raw: str) -> float | None:
    return None if raw == "-" else float(raw)


def _ppoint(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(",")) if raw else ()


def _fnums(column: np.ndarray) -> list[str]:
    """`_fnum` of each entry of a column of floats, with one `repr` for the column."""
    text = repr(column.tolist())[1:-1]
    return text.split(", ") if text else []


def _fpoints(points: np.ndarray) -> list[str]:
    """Each row of an `(N, dim)` array as comma-separated `repr`s, with one `repr` for the array."""
    return repr(points.tolist())[2:-2].replace(", ", ",").split("],[") if len(points) else []


def to_canonical(report: RunReport) -> str:
    """The canonical text of `report`; row k of each checker is written with the point of structure row k.

    The structure is written from its columns, and a report object that
    points share (`theorems._reports`) is formatted once per section.
    """
    table = StructureTable.of(report.structure)
    heads = [f"{i}{_SEP}point={point}{_SEP}" for i, point in enumerate(_fpoints(table.points))]
    kahler = ["-"] * len(table) if table.kahler is None else _fnums(table.kahler)
    mid = f"{_SEP}dims={'-' if table.dims is None else ','.join(map(str, table.dims))}{_SEP}conformality="
    lines = [
        "confsub-report = 1",
        f"scene = {report.scene}",
        f"engine = {report.engine_version}",
        f"seed = {report.seed}",
        f"count = {report.count}",
        f"tol.theorem = {_fnum(report.theorem_tolerance)}",
        f"machinery_only = {int(report.machinery_only)}",
        f"kahler_verified = {'-' if report.kahler_verified is None else int(report.kahler_verified)}",
        f"exit = {report.exit_code}",
        "[structure]",
    ]
    lines += [f"{head}lambda={lam}{mid}{conf}{_SEP}kahler={kah}"
              for head, lam, conf, kah in zip(heads, _fnums(table.lam), _fnums(table.conformality), kahler)]
    for name, rows in report.reports.items():
        lines.append(f"[checker {name}]")
        tails = {}  # by identity: every row is alive in `report` while it is written
        for head, r in zip(heads, rows, strict=True):
            tail = tails.get(id(r))
            if tail is None:
                assert _SEP not in r.label, "labels must not contain the field separator"
                tail = tails[id(r)] = _SEP.join([
                    f"ra={_fnum(r.residual_a)}",
                    f"rb={_fnum(r.residual_b)}",
                    f"va={r.verdict_a}",
                    f"vb={r.verdict_b}",
                    f"agree={int(r.agree)}",
                    f"vacuous={int(r.vacuous)}",
                    f"tol={_fnum(r.tolerance)}",
                    f"label={r.label}",
                ])
            lines.append(head + tail)
    lines.append("[aggregates]")
    for agg in report.aggregates():
        lines.append(_SEP.join([
            agg.name,
            f"n={agg.total}",
            f"max_ra={_fnum(agg.max_residual_a)}",
            f"max_rb={_fnum(agg.max_residual_b)}",
            f"agree={agg.agree_count}/{agg.total}",
            f"vacuous={agg.vacuous_count}",
        ]))
    lines += ["[skipped]", *(f"{name}{_SEP}{reason}" for name, reason in report.skipped),
              "[warnings]", *report.warnings, "[end]"]
    return "\n".join(lines) + "\n"


def _take(line: str, key: str) -> str:
    prefix = f"{key}="
    if not line.startswith(prefix):
        raise ValueError(f"expected field {key!r} in {line!r}")
    return line[len(prefix):]


def from_canonical(text: str) -> RunReport:
    """The report that `to_canonical` wrote as `text`; other text is a ValueError naming its line."""
    lines = text.splitlines()
    if not lines or lines[0] != "confsub-report = 1":
        raise ValueError("line 1: not a canonical report")
    head = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("["):
        key, _, value = lines[i].partition(" = ")
        head[key] = value
        i += 1
    try:
        report = RunReport(
            scene=head["scene"],
            engine_version=head["engine"],
            seed=int(head["seed"]),
            count=int(head["count"]),
            theorem_tolerance=float(head["tol.theorem"]),
            machinery_only=bool(int(head["machinery_only"])),
            kahler_verified=None if head["kahler_verified"] == "-" else bool(int(head["kahler_verified"])),
            exit_code=int(head["exit"]),
        )
        points, lam, dims, conformality, kahler = [], [], [], [], []
        section = checker = None
        for i in range(i, len(lines)):
            line = lines[i]
            if line.startswith("["):
                tag = line[1:-1]
                if tag.startswith("checker "):
                    section = "checker"
                    checker = tag[len("checker "):]
                    report.reports[checker] = []
                else:
                    section = tag
            elif section == "structure":
                fields = line.split(_SEP)
                point = _ppoint(_take(fields[1], "point"))
                if points and len(point) != len(points[0]):
                    raise ValueError(f"a point of {len(point)} coordinates after points of {len(points[0])}")
                dims_raw = _take(fields[3], "dims")
                points.append(point)
                lam.append(float(_take(fields[2], "lambda")))
                dims.append(None if dims_raw == "-" else tuple(int(x) for x in dims_raw.split(",")))
                conformality.append(float(_take(fields[4], "conformality")))
                kahler.append(_pnum(_take(fields[5], "kahler")))
            elif section == "checker":
                fields = line.split(_SEP)
                r = ConditionReport(
                    name=checker,
                    residual_a=float(_take(fields[2], "ra")),
                    residual_b=_pnum(_take(fields[3], "rb")),
                    vacuous=bool(int(_take(fields[7], "vacuous"))),
                    tolerance=float(_take(fields[8], "tol")),
                    label=_take(fields[9], "label"),
                )
                stored = (_take(fields[4], "va"), _take(fields[5], "vb"), bool(int(_take(fields[6], "agree"))))
                if stored != (r.verdict_a, r.verdict_b, r.agree):
                    raise ValueError(f"verdicts in {line!r} do not follow from its residuals and tolerance")
                report.reports[checker].append(r)
            elif section == "skipped":
                name, _, reason = line.partition(_SEP)
                report.skipped.append((name, reason))
            elif section == "warnings":
                report.warnings.append(line)
    except KeyError as err:
        raise ValueError(f"line {i + 1}: missing header field {err}") from None
    except IndexError:
        raise ValueError(f"line {i + 1}: too few fields in {lines[i]!r}") from None
    except ValueError as err:
        raise ValueError(f"line {i + 1}: {err}") from None
    # the first row's dims for all: a row with other dims differs from its rewrite below
    try:
        report.structure = _table(points, lam, conformality, kahler, dims[0] if dims else None)
    except ValueError as err:
        raise ValueError(f"line {lines.index('[structure]') + 1}: {err}") from None
    if "[structure]" in lines and report.count != len(report.structure):
        raise ValueError(f"line {lines.index('[structure]') + 1}: [structure] has {len(report.structure)} rows, "
                         f"the header's count is {report.count}")
    for name, rows in report.reports.items():
        if len(rows) != len(report.structure):
            header = f"[checker {name}]"
            raise ValueError(f"line {lines.index(header) + 1}: {header} has {len(rows)} rows, "
                             f"one per structure row needs {len(report.structure)}")
    written = to_canonical(report).splitlines()
    for n, (got, want) in enumerate(zip_longest(lines, written), start=1):
        if got != want:
            raise ValueError(f"line {n}: expected {want!r}, got {got!r}")
    return report


# ---------------------------------------------------------------------------
# Human-readable table


def render_table(report: RunReport) -> str:
    out = []
    out.append(f"scene {report.scene}  (engine {report.engine_version})")
    out.append(
        f"points {report.count}  seed {report.seed}  theorem tol {report.theorem_tolerance:g}"
    )
    if report.kahler_verified is None:
        out.append("complex structure: none (machinery-only run)")
    else:
        out.append(f"kaehler verified: {'yes' if report.kahler_verified else 'NO'}")
    out.append("")
    out.append("structure per point")
    out.append(f"{'idx':>4} {'lambda':>18} {'d1':>3} {'d2':>3} {'jd2':>4} {'mu':>3} {'conf_resid':>11} {'kahler_resid':>13}")
    table = StructureTable.of(report.structure)
    dims = table.dims or ("-", "-", "-", "-")
    kahler = ["-"] * len(table) if table.kahler is None else [f"{k:.2e}" for k in table.kahler.tolist()]
    for i, (lam, conf, kah) in enumerate(zip(table.lam.tolist(), table.conformality.tolist(), kahler)):
        out.append(
            f"{i:>4} {lam:>18.12f} {dims[0]:>3} {dims[1]:>3} {dims[2]:>4} {dims[3]:>3} "
            f"{conf:>11.2e} {kah:>13}"
        )
    out.append("")
    if report.reports:
        out.append("checkers (aggregated over points)")
        out.append(
            f"{'checker':<38} {'n':>3} {'max_resid_a':>12} {'max_resid_b':>12} {'agree':>7} {'vacuous':>7}"
        )
        for agg in report.aggregates():
            rb = "-" if agg.max_residual_b is None else f"{agg.max_residual_b:.2e}"
            out.append(
                f"{agg.name:<38} {agg.total:>3} {agg.max_residual_a:>12.2e} {rb:>12} "
                f"{agg.agree_count:>3}/{agg.total:<3} {agg.vacuous_count:>7}"
            )
    if report.skipped:
        out.append("")
        out.append("skipped checkers")
        for name, reason in report.skipped:
            out.append(f"  {name}: {reason}")
    if report.warnings:
        out.append("")
        out.append("warnings")
        for w in report.warnings:
            out.append(f"  {w}")
    out.append("")
    out.append("verdicts are sampled statements at the listed points, not global claims")
    status = {0: "ok", 3: "STRUCTURAL FAILURE", 4: "THEOREM DISAGREEMENT", 5: "hypothesis warnings"}
    out.append(f"exit {report.exit_code} ({status.get(report.exit_code, 'error')})")
    return "\n".join(out) + "\n"
