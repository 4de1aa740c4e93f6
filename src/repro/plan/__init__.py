"""repro.plan — what a PEDAL op is and what it costs.

The bottom of the PEDAL stack, below every layer that runs an op: the
eight designs of Table III (:mod:`~repro.plan.designs`), the 3-byte
message header (:mod:`~repro.plan.header`), the capability resolution
with SoC fallback (:mod:`~repro.plan.registry`), the charge plan the
simulator executes and the cost model sums
(:mod:`~repro.plan.charges`), and the real bytes of every design
(:mod:`~repro.plan.codecs` with its two hybrids,
:mod:`~repro.plan.zlib_hybrid` and :mod:`~repro.plan.sz3_hybrid`).
:mod:`repro.core` runs these plans; ``select``, ``sched`` and
``stream`` read them without importing ``core``.
"""
