#!/usr/bin/env python
"""Regenerate every committed bench report (BENCH_PR3 .. BENCH_PR10).

Each row of ``repro.bench.regress.REPORTS`` is re-collected and gated
on its bands; only when every report passes are the files written, all
of them, so a failing gate never leaves some files regenerated and
others not.  See ``repro.bench.regress`` for the table of reports.

Usage::

    PYTHONPATH=src python benchmarks/regress.py            # gate + write
    PYTHONPATH=src python benchmarks/regress.py --check    # gate only

Exact sections reproduce bit-for-bit on any machine (``tests/bench``
compares them with the files); wall sections are only band-gated.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.bench import regress  # noqa: E402

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="gate the fresh numbers without writing the files")
    args = parser.parse_args(argv)

    reports, violations = {}, []
    for name in regress.REPORTS:
        reports[name] = regress.collect(name)
        violations += regress.gate(name, reports[name])
        print(f"{name}:")
        for key, section in regress.REPORTS[name].sections.items():
            headlines = (reports[name][key] if key else reports[name])["headlines"]
            for band, value in sorted(headlines.items()):
                print(f"  {band:<48s} {value:12.6g}")
    if violations:
        print("REGRESSION GATE FAILED:")
        print("\n".join(f"  - {v}" for v in violations))
        return 1
    if not args.check:
        for name, report in reports.items():
            path = os.path.join(REPO_ROOT, regress.REPORTS[name].path)
            regress.write_report(report, path)
            print(f"wrote {path}")
    print("regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
