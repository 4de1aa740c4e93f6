"""Shared helpers for the ``BENCH_PR*.json`` gate tests.

Every report is a row of :data:`repro.bench.regress.REPORTS`; these
helpers serve all of them alike: one fresh collection per report per
session, the committed file, and the one exact comparer.
"""

from __future__ import annotations

import functools
import json
import math
import pathlib

import pytest

from repro.bench import regress

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@functools.cache
def fresh(name: str) -> dict:
    """``regress.collect(name)`` in the form the file stores it (tuples
    become lists), collected once per session and shared by every
    caller, so callers must not mutate it."""
    return json.loads(json.dumps(regress.collect(name)))


def committed(name: str) -> dict:
    path = REPO_ROOT / regress.REPORTS[name].path
    if not path.exists():
        pytest.fail(f"{path.name} missing — regenerate it with "
                    "'python benchmarks/regress.py'")
    return regress.load_report(path)


def _diffs(fresh, recorded, where: str) -> "list[str]":
    if isinstance(recorded, dict) and isinstance(fresh, dict):
        if set(fresh) != set(recorded):
            return [f"{where}: keys {sorted(set(fresh) ^ set(recorded))} drifted"]
        return [d for key in recorded
                for d in _diffs(fresh[key], recorded[key], f"{where}.{key}")]
    if isinstance(recorded, list) and isinstance(fresh, list):
        if len(fresh) != len(recorded):
            return [f"{where}: length {len(fresh)} != {len(recorded)}"]
        return [d for i, (f, r) in enumerate(zip(fresh, recorded))
                for d in _diffs(f, r, f"{where}[{i}]")]
    if isinstance(recorded, float) and isinstance(fresh, (int, float)):
        if math.isnan(recorded) and math.isnan(fresh):
            return []
        if math.isclose(fresh, recorded, rel_tol=1e-12, abs_tol=0.0):
            return []
    elif fresh == recorded and type(fresh) is type(recorded):
        return []
    return [f"{where}: {fresh!r} != {recorded!r}"]


def assert_exact(name: str, fresh_report: dict, committed_report: dict) -> None:
    """Deep-compare every exact section of report ``name`` — all of it
    but its wall-clock sections — with floats at rel 1e-12."""
    wall = {key for key, section in regress.REPORTS[name].sections.items()
            if not section.exact}
    diffs = _diffs({k: v for k, v in fresh_report.items() if k not in wall},
                   {k: v for k, v in committed_report.items() if k not in wall},
                   regress.REPORTS[name].path)
    assert not diffs, (
        "drifted (regenerate with 'python benchmarks/regress.py'):\n"
        + "\n".join(diffs[:20])
    )


def assert_reproduced(name: str) -> None:
    assert_exact(name, fresh(name), committed(name))


def assert_gate_flags_every_band(name: str) -> None:
    """Headlines pushed past every band, and no headlines at all: the
    gate names each band once."""
    report = {"headlines": {}, **{key: {"headlines": {}}
                                  for key in regress.REPORTS[name].sections if key}}
    for key, section in regress.REPORTS[name].sections.items():
        headlines = (report[key] if key else report)["headlines"]
        for band, (floor, ceiling) in section.bands.items():
            headlines[band] = floor - 1.0 if floor is not None else ceiling + 1.0
    bands = [band for section in regress.REPORTS[name].sections.values()
             for band in section.bands]
    violations = regress.gate(name, report)
    assert [v.split(":")[0] for v in violations] == bands
    assert all("below floor" in v or "above ceiling" in v for v in violations)
    missing = regress.gate(name, {})
    assert [v.split(":")[0] for v in missing] == bands
    assert all("missing from report" in v for v in missing)
