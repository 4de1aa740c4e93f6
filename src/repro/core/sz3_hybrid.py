"""Kept for ``benchmarks/perf`` until a benchmark PR re-points it to :mod:`repro.plan.sz3_hybrid`."""
from repro.plan.sz3_hybrid import hybrid_sz3_compress  # noqa: F401
