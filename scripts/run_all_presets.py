#!/usr/bin/env python3
"""Run the full verification suite on every builtin preset and summarize."""

import sys

from confsub.report import render_table
from confsub.runner import run
from confsub.scenes import load_preset, preset_names


def main() -> int:
    failures = 0
    for name in preset_names():
        report = run(load_preset(name))
        aggs = report.aggregates()
        agree = sum(a.agree_count for a in aggs)
        total = sum(a.total for a in aggs)
        vac = sum(a.vacuous_count for a in aggs)
        status = "ok" if report.exit_code == 0 else f"EXIT {report.exit_code}"
        print(
            f"{name:<12} exit={report.exit_code} rows={len(aggs):>2} "
            f"reports={total:>4} agree={agree:>4} vacuous={vac:>4} "
            f"skipped={len(report.skipped)}  [{status}]"
        )
        if report.exit_code != 0:
            failures += 1
            print(render_table(report))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
