"""Kept for ``benchmarks/perf`` until a benchmark PR re-points it to :mod:`repro.plan.codecs`."""
from repro.plan.codecs import CodecConfig, real_compress, real_decompress  # noqa: F401
