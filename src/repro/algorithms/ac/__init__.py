"""Adaptive-context range coder (the ``ac`` lossless codec).

EDPC-style probability-model + entropy-coder backend: a chunk-adaptive
hashed order-N byte-context model (:mod:`~repro.algorithms.ac.model`)
feeding a from-scratch carry-aware range coder
(:mod:`~repro.algorithms.ac.rangecoder`), with the two stages decoupled
behind a bounded batch queue (:mod:`~repro.algorithms.ac.codec`).  A
deliberately-simple bitwise arithmetic coder
(:mod:`repro.algorithms.reference.ac`) serves as the differential
oracle.

Like every codec under :mod:`repro.algorithms`, this is pure bytes-in /
bytes-out and knows nothing about DPUs; the simulated-hardware pipeline
twin lives in :mod:`repro.sched.decoupled` and placement/pricing in
:mod:`repro.core` / :mod:`repro.select`.
"""

from repro.algorithms.ac.codec import (
    CodingBatch,
    DEFAULT_CONFIG,
    HEADER_BYTES,
    MAGIC,
    ac_compress,
    ac_compress_pipelined,
    ac_decompress,
    encode_batches,
    model_batches,
    parse_header,
)
from repro.algorithms.ac.model import ACConfig, ContextModel
from repro.algorithms.ac.rangecoder import RangeDecoder, RangeEncoder

__all__ = [
    "ACConfig",
    "CodingBatch",
    "ContextModel",
    "DEFAULT_CONFIG",
    "HEADER_BYTES",
    "MAGIC",
    "RangeDecoder",
    "RangeEncoder",
    "ac_compress",
    "ac_compress_pipelined",
    "ac_decompress",
    "encode_batches",
    "model_batches",
    "parse_header",
]
