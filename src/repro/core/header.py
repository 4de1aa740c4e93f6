"""Kept for ``benchmarks/perf`` until a benchmark PR re-points it to :mod:`repro.plan.header`."""
from repro.plan.header import HEADER_SIZE  # noqa: F401
