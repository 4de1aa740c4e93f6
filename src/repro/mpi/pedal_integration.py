"""The PEDAL <-> MPICH integration shim (paper §IV, Fig. 6).

Sender side: sits between the MPI abstraction and the transport; when a
message takes the rendezvous path, the user buffer is compressed and
the wire carries ``PEDAL header + compressed payload``.  Receiver side:
the receive is posted with a PEDAL-owned buffer; once the full message
arrives it is decompressed straight into the user buffer.

Three modes:

* ``RAW`` — plain MPI, no compression (the uncompressed reference);
* ``PEDAL`` — the co-design: pooled buffers, DOCA init hoisted into
  ``MPI_Init``;
* ``NAIVE`` — the paper's baseline: same compression algorithms, but
  memory allocation and DOCA initialisation on every message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Generator

from repro.core.api import PEDAL_finalize, PedalConfig, PedalContext
from repro.core.baseline import NaiveCompressor
from repro.dpu.device import BlueFieldDPU
from repro.errors import MpiConfigError, SimulationError
from repro.mpi.protocol import EAGER_THRESHOLD_BYTES, should_compress
from repro.obs import get_metrics
from repro.plan.codecs import CodecConfig
from repro.plan.designs import CompressionDesign, design as lookup_design
from repro.plan.header import HEADER_SIZE, PedalHeader
from repro.sim import TimeBreakdown
from repro.stream import DEFAULT_CHUNK_BYTES as STREAM_CHUNK_BYTES

__all__ = ["CommMode", "CommConfig", "CompressionLayer"]


class CommMode(str, Enum):
    RAW = "raw"
    PEDAL = "pedal"
    NAIVE = "naive"


@dataclass(frozen=True)
class CommConfig:
    """Per-job communication-layer configuration."""

    mode: CommMode = CommMode.RAW
    design: "str | CompressionDesign | None" = None
    codecs: CodecConfig = field(default_factory=CodecConfig)
    # The eager/rendezvous boundary.  PEDAL compresses exactly the
    # rendezvous-path messages (paper §IV), so this one size decides
    # both the protocol and whether a message is compressed.
    eager_threshold: int = EAGER_THRESHOLD_BYTES
    # ZipLine-style streaming rendezvous: chunk the payload through
    # repro.stream and overlap C-Engine work with fabric transfer.
    streaming: bool = False
    stream_chunk_bytes: int = STREAM_CHUNK_BYTES
    stream_depth: int = 2  # pipeline queue slots per streamed message

    def resolved_design(self) -> CompressionDesign | None:
        if self.design is None:
            return None
        return lookup_design(self.design)

    def __post_init__(self) -> None:
        if self.mode is not CommMode.RAW and self.design is None:
            raise ValueError(f"mode {self.mode.value} requires a design")
        if self.eager_threshold < 0:
            raise MpiConfigError(
                f"eager_threshold must be >= 0, got {self.eager_threshold}"
            )
        if self.stream_chunk_bytes < 1:
            raise MpiConfigError(
                f"stream_chunk_bytes must be >= 1, got {self.stream_chunk_bytes}"
            )
        if self.stream_depth < 1:
            raise MpiConfigError(
                f"stream_depth must be >= 1, got {self.stream_depth}"
            )


class CompressionLayer:
    """Shim instance bound to one node (one DPU)."""

    def __init__(self, device: BlueFieldDPU, config: CommConfig) -> None:
        self.device = device
        self.config = config
        self.pedal: PedalContext | None = None
        self.naive: NaiveCompressor | None = None
        self.compress_seconds = 0.0
        self.decompress_seconds = 0.0
        if config.mode is CommMode.PEDAL:
            self.pedal = PedalContext(
                device,
                PedalConfig(codecs=config.codecs),
            )
        elif config.mode is CommMode.NAIVE:
            self.naive = NaiveCompressor(device, config.codecs)

    def mpi_init(self) -> Generator:
        """The ``MPI_Init`` hook: runs ``PEDAL_init`` (PEDAL mode only)."""
        if self.pedal is not None:
            breakdown = yield from self.pedal.init()
            return breakdown
        return TimeBreakdown()

    def mpi_finalize(self) -> None:
        """The ``MPI_Finalize`` hook: runs ``PEDAL_finalize`` (PEDAL mode
        only).  Tear-down charges no sim time, so the generator runs to
        its end here, outside the event loop."""
        if self.pedal is not None:
            for _event in PEDAL_finalize(self.pedal):
                raise SimulationError("PEDAL_finalize waited on a sim event")

    # -- send path -----------------------------------------------------------

    def outbound(
        self, data: Any, sim_bytes: float
    ) -> Generator:
        """Prepare a payload for the wire.

        Returns ``(payload, wire_bytes, meta)``.  ``payload`` is what
        the receiver's :meth:`inbound` will see; ``wire_bytes`` is the
        simulated size crossing the fabric.
        """
        cfg = self.config
        dsg = cfg.resolved_design()
        if cfg.mode is CommMode.RAW or dsg is None or not should_compress(
            sim_bytes, cfg.eager_threshold
        ):
            if cfg.mode is CommMode.RAW:
                return data, sim_bytes, {
                    "compressed": False, "raw": True,
                    "sim_uncompressed": sim_bytes,
                }
            # PEDAL passthrough: header marks the message uncompressed.
            metrics = get_metrics()
            if metrics.recording:
                metrics.inc("mpi.shim.passthrough")
            return (
                (PedalHeader.passthrough(), data),
                sim_bytes + HEADER_SIZE,
                {"compressed": False, "raw": False,
                 "sim_uncompressed": sim_bytes},
            )

        metrics = get_metrics()
        if metrics.recording:
            metrics.inc("mpi.shim.compressed")
            metrics.inc("mpi.shim.sim_bytes_in", sim_bytes)
        t0 = self.device.env.now
        if cfg.mode is CommMode.PEDAL:
            assert self.pedal is not None
            result = yield from self.pedal.compress(data, dsg, sim_bytes)
        else:
            assert self.naive is not None
            result = yield from self.naive.compress(data, dsg, sim_bytes)
        self.compress_seconds += self.device.env.now - t0
        if metrics.recording:
            metrics.inc("mpi.shim.sim_bytes_wire", result.sim_compressed_bytes)
        meta = {
            "compressed": True,
            "raw": False,
            "sim_uncompressed": sim_bytes,
            "design": dsg,
            "breakdown": result.breakdown,
        }
        return result.message, result.sim_compressed_bytes, meta

    # -- receive path ----------------------------------------------------------

    def inbound(self, payload: Any, meta: dict) -> Generator:
        """Recover user data from a wire payload."""
        if meta.get("raw"):
            return payload
        if not meta.get("compressed"):
            _header, data = payload
            return data
        dsg: CompressionDesign = meta["design"]
        sim_bytes = meta["sim_uncompressed"]
        t0 = self.device.env.now
        if self.config.mode is CommMode.PEDAL:
            assert self.pedal is not None
            result = yield from self.pedal.decompress(
                payload, dsg.placement, sim_bytes
            )
        else:
            assert self.naive is not None
            result = yield from self.naive.decompress(
                payload, dsg.placement, sim_bytes
            )
        self.decompress_seconds += self.device.env.now - t0
        return result.data
