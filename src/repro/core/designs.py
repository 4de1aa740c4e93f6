"""Kept for ``benchmarks/perf`` until a benchmark PR re-points it to :mod:`repro.plan.designs`."""
from repro.plan.designs import design  # noqa: F401
