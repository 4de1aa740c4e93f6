"""The non-PEDAL baseline: naive per-operation DOCA usage.

This is the comparison point of Fig. 7 and the "baseline" curves of
Fig. 10/11: every compression or decompression pays the full DOCA
initialisation and buffer-preparation cost *inside the operation*
("memory allocation and the DOCA initialization procedure are invoked
during every message transmission", §V-D).  SoC-placed designs skip
DOCA but still allocate their working buffers per call.

The same real codecs produce the same real bytes as PEDAL, through the
same op body (:func:`~repro.core.api.compress_op` /
:func:`~repro.core.api.decompress_op`) and the same charge plan
(:mod:`repro.plan.charges`) — only *un-hoisted*: no memory pool, no
path selector, and the per-op set-up prefix on every plan.

Fault response is therefore PEDAL's too: injected DOCA init failures and
engine job failures are retried under the retry budget of
:mod:`repro.faults.policy` and escalate to the SoC pipeline for
the current operation once the budget is exhausted — but, true to the
naive flow, nothing is remembered across operations (the next op pays
full DOCA init and may fail all over again).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.core.api import compress_op, decompress_op
from repro.dpu.device import BlueFieldDPU
from repro.plan.codecs import CodecConfig
from repro.plan.designs import CompressionDesign, Placement, design as lookup_design

__all__ = ["NaiveCompressor"]


class NaiveCompressor:
    """Per-operation (PEDAL-less) compression on one device."""

    def __init__(self, device: BlueFieldDPU, codecs: CodecConfig | None = None) -> None:
        self.device = device
        self.codecs = codecs or CodecConfig()

    def compress(
        self,
        data: Any,
        design: "str | CompressionDesign",
        sim_bytes: float | None = None,
    ) -> Generator:
        """One naive compression: init + prep + codec, all charged here."""
        dsg = lookup_design(design)
        result = yield from compress_op(
            self.device, "naive.compress", dsg.algo, dsg.placement, data,
            sim_bytes, self.codecs, hoisted=False,
        )
        return result

    def decompress(
        self,
        message: bytes,
        placement: Placement = Placement.CENGINE,
        sim_bytes: float | None = None,
    ) -> Generator:
        """One naive decompression (same per-op overheads)."""
        result = yield from decompress_op(
            self.device, "naive.decompress", message, placement, sim_bytes,
            None, hoisted=False,
        )
        return result
