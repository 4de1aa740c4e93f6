"""Compression placement for host-resident MPI ranks (paper §VI).

:class:`HostOffloadEngine` evaluates one compress(+send-side) pipeline
under three placements, doing the real codec work once and charging the
simulated host/PCIe/DPU hardware per placement.  The decompress path
mirrors it.  Breakdown phases: ``pcie_h2d`` / ``pcie_d2h`` (link
crossings), ``compression`` / ``decompression`` (codec), plus PEDAL's
usual phases when the DPU side is engaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Generator

from repro.core.api import PedalContext
from repro.dpu.device import BlueFieldDPU
from repro.dpu.specs import Algo, Direction
from repro.host.model import HostNode
from repro.host.specs import PcieSpec
from repro.plan.codecs import CodecConfig, real_compress, real_decompress
from repro.plan.designs import CompressionDesign, design as lookup_design
from repro.plan.header import HEADER_SIZE, PedalHeader
from repro.plan.registry import cengine_core_algo, resolve
from repro.sim import TimeBreakdown

__all__ = ["OffloadPath", "OffloadResult", "HostOffloadEngine"]

PHASE_PCIE_H2D = "pcie_h2d"
PHASE_PCIE_D2H = "pcie_d2h"
PHASE_CODEC = "compression"
PHASE_DECODEC = "decompression"
# zlib checksum/header work on host cores — same phase name the DPU-side
# paths use (repro.core.api/baseline), so breakdowns compare like for
# like and the charge is visibly symmetric across directions.
PHASE_HEADER = "header_trailer"


class OffloadPath(str, Enum):
    """Where a host rank's compression executes."""

    HOST_ONLY = "host_only"
    DPU_ROUNDTRIP = "dpu_roundtrip"
    DPU_INLINE = "dpu_inline"


@dataclass
class OffloadResult:
    """One offloaded compression with its accounting."""

    message: bytes
    path: OffloadPath
    design: CompressionDesign
    original_bytes: int
    compressed_bytes: int
    sim_compressed_bytes: float
    breakdown: TimeBreakdown
    # True when the compressed bytes end up DPU-side (inline path) —
    # the send must then go out of the DPU NIC.
    data_on_dpu: bool

    @property
    def sim_seconds(self) -> float:
        return self.breakdown.total()


class HostOffloadEngine:
    """A host + DPU pair evaluating compression placements."""

    def __init__(
        self,
        host: HostNode,
        dpu: BlueFieldDPU,
        pcie: PcieSpec,
        codecs: CodecConfig | None = None,
    ) -> None:
        self.host = host
        self.dpu = dpu
        self.pcie = pcie
        self.codecs = codecs or CodecConfig()
        self.pedal = PedalContext(dpu)
        self._pedal_ready = False

    def init(self) -> Generator:
        """Bring up the DPU-side PEDAL context (once)."""
        if not self._pedal_ready:
            yield from self.pedal.init()
            self._pedal_ready = True

    def _pcie_crossing(self, nbytes: float, phase: str, breakdown: TimeBreakdown):
        seconds = self.pcie.transfer_time(nbytes)
        breakdown.add(phase, seconds)
        yield self.host.env.timeout(seconds)

    def compress(
        self,
        data: Any,
        design_spec: "str | CompressionDesign",
        path: OffloadPath,
        sim_bytes: float | None = None,
    ) -> Generator:
        """Compress ``data`` under ``path``; returns :class:`OffloadResult`."""
        dsg = lookup_design(design_spec)
        real = real_compress(dsg, data, self.codecs)
        sim_in = float(real.original_bytes if sim_bytes is None else sim_bytes)
        scale = sim_in / real.original_bytes if real.original_bytes else 1.0
        message = PedalHeader.for_algo(dsg.algo).encode() + real.payload
        sim_out = len(message) * scale
        breakdown = TimeBreakdown()

        if path is OffloadPath.HOST_ONLY:
            seconds = self._host_codec_seconds(dsg, Direction.COMPRESS, sim_in)
            yield from self.host.run(seconds)
            breakdown.add(PHASE_CODEC, seconds)
            yield from self._host_checksum(dsg, sim_in, breakdown)
            return OffloadResult(
                message, path, dsg, real.original_bytes, len(message),
                sim_out, breakdown, data_on_dpu=False,
            )

        # DPU paths: ship the raw data down over PCIe...
        yield from self._pcie_crossing(sim_in, PHASE_PCIE_H2D, breakdown)
        # ...compress with PEDAL on the DPU (engine or SoC fallback)...
        comp = yield from self.pedal.compress(data, dsg, sim_in)
        breakdown.merge(comp.breakdown)
        if path is OffloadPath.DPU_ROUNDTRIP:
            # ...and bring the (smaller) compressed bytes back up.
            yield from self._pcie_crossing(sim_out, PHASE_PCIE_D2H, breakdown)
            return OffloadResult(
                message, path, dsg, real.original_bytes, len(message),
                sim_out, breakdown, data_on_dpu=False,
            )
        return OffloadResult(
            message, path, dsg, real.original_bytes, len(message),
            sim_out, breakdown, data_on_dpu=True,
        )

    def decompress(
        self,
        message: bytes,
        path: OffloadPath,
        sim_bytes: float | None = None,
    ) -> Generator:
        """Mirror path for the receive side; returns (data, breakdown)."""
        header = PedalHeader.decode(message)
        breakdown = TimeBreakdown()
        if not header.is_compressed:
            return message[HEADER_SIZE:], breakdown
        algo = header.algo
        assert algo is not None
        data, _stage = real_decompress(algo, message[HEADER_SIZE:])
        actual_out = data.nbytes if hasattr(data, "nbytes") else len(data)
        sim_out = float(actual_out if sim_bytes is None else sim_bytes)
        scale = sim_out / actual_out if actual_out else 1.0
        sim_in = len(message) * scale

        if path is OffloadPath.HOST_ONLY:
            dsg = CompressionDesign(algo, lookup_design("SoC_DEFLATE").placement)
            seconds = self._host_codec_seconds(dsg, Direction.DECOMPRESS, sim_out)
            yield from self.host.run(seconds)
            breakdown.add(PHASE_DECODEC, seconds)
            # Mirror of the compress side: zlib's adler32 verification
            # is charged on the decompress direction too (billed on the
            # uncompressed bytes, the same convention both ways), so
            # the host-vs-DPU crossover stays symmetric.
            yield from self._host_checksum(dsg, sim_out, breakdown)
            return data, breakdown

        if path is OffloadPath.DPU_ROUNDTRIP:
            # Compressed bytes down, decompressed data back up.
            yield from self._pcie_crossing(sim_in, PHASE_PCIE_H2D, breakdown)
        # (Inline: the message arrived at the DPU NIC; already DPU-side.)
        dec = yield from self.pedal.decompress(message, sim_bytes=sim_out)
        breakdown.merge(dec.breakdown)
        yield from self._pcie_crossing(sim_out, PHASE_PCIE_D2H, breakdown)
        return data, breakdown

    def _host_codec_seconds(
        self, dsg: CompressionDesign, direction: Direction, sim_bytes: float
    ) -> float:
        """Host-core time for the design's codec stages (checksum work
        is charged separately by :meth:`_host_checksum` so it lands in
        the ``header_trailer`` phase on both directions)."""
        if dsg.algo is Algo.SZ3:
            return self.host.codec_time(Algo.SZ3, direction, sim_bytes)
        core = cengine_core_algo(dsg.algo)
        return self.host.codec_time(core, direction, sim_bytes)

    def _host_checksum_seconds(
        self, dsg: CompressionDesign, sim_bytes: float
    ) -> float:
        """zlib adler32/header time on a host core (0 for other algos).

        Direction-independent by construction: the checksum streams the
        uncompressed bytes whether it is being computed (compress) or
        verified (decompress).
        """
        if dsg.algo is not Algo.ZLIB:
            return 0.0
        # Host checksum work, scaled like the codecs.
        return self.dpu.cal.checksum_time(sim_bytes) / self.host.spec.perf_scale

    def _host_checksum(
        self, dsg: CompressionDesign, sim_bytes: float, breakdown: TimeBreakdown
    ) -> Generator:
        seconds = self._host_checksum_seconds(dsg, sim_bytes)
        if seconds > 0.0:
            yield from self.host.run(seconds)
            breakdown.add(PHASE_HEADER, seconds)

    def predicted_crossover_bytes(self, design_spec: "str | CompressionDesign") -> float:
        """Message size where DPU_ROUNDTRIP starts beating HOST_ONLY.

        Closed-form from the linear cost model (compression direction,
        ratio folded out of the PCIe return leg for simplicity).  Useful
        as a planning heuristic; the ablation bench measures the real
        crossover including the return-leg savings.
        """
        dsg = lookup_design(design_spec)
        core = cengine_core_algo(dsg.algo)
        resolved = resolve(self.dpu, dsg)
        if resolved.compress_engine != "cengine":
            return float("inf")  # fallback SoC never beats the host CPU
        cal = self.dpu.cal
        host_rate = (
            cal.soc_throughput[(core, Direction.COMPRESS)] * self.host.spec.perf_scale
        )
        engine_rate = cal.cengine_throughput[(core, Direction.COMPRESS)]
        per_byte_gain = 1.0 / host_rate - 1.0 / engine_rate - 2.0 / self.pcie.bandwidth
        fixed_cost = (
            2 * self.pcie.dma_setup_s + cal.cengine_overhead[Direction.COMPRESS]
        )
        if per_byte_gain <= 0:
            return float("inf")
        return fixed_cost / per_byte_gain
