"""Large-payload streaming through the serving gateway.

A :class:`StreamingSession` is :mod:`repro.stream`'s RST1 writer and
reader with gateway tickets in place of a local codec: each chunk is a
:class:`~repro.serve.request.ServeRequest` the gateway batches, routes
and executes like any other traffic (a shed chunk's ticket raises
:class:`~repro.errors.AdmissionError` when waited on).  The container is
**byte-identical** to a one-shot :func:`repro.stream.stream_compress`
with matching codec configuration — a client can compress through the
gateway and hand the container to an MPI rank (or vice versa) and every
CRC checks out.  Decompress accepts any RST1 container, decodes each
chunk under the container's own algo, and raises the same typed
:class:`~repro.errors.StreamError`\\ s as every other RST1 decoder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.dpu.specs import Algo, Direction
from repro.serve.request import ServeRequest
from repro.stream import DEFAULT_CHUNK_BYTES, FrameReader, FrameWriter, StreamConfig

if TYPE_CHECKING:
    from repro.serve.gateway import ServeGateway

__all__ = ["StreamingSession"]


class StreamingSession:
    """Chunked (de)compression of one payload through a gateway."""

    def __init__(
        self,
        gateway: "ServeGateway",
        algo: Algo = Algo.DEFLATE,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        tenant: str | None = None,
    ) -> None:
        # StreamConfig validates algo/chunk_bytes; the gateway's codec
        # tuning makes the containers match repro.stream byte for byte.
        self.config = StreamConfig(
            algo=algo, chunk_bytes=chunk_bytes, codecs=gateway.codecs
        )
        self.gateway = gateway
        self.tenant = tenant
        self._req_seq = 0

    # -- compress ----------------------------------------------------------

    def compress(self, payload: bytes, sim_bytes: float | None = None) -> Generator:
        """Sim process: stream ``payload`` through the gateway.

        Returns the complete RST1 container.  Chunks are submitted up
        front (the gateway's admission/batching policies apply) and
        framed in order as their tickets complete.
        """
        raw = bytes(payload)
        scale = (sim_bytes / len(raw)) if sim_bytes and len(raw) else 1.0
        writer = FrameWriter(self.config)
        chunks = writer.split(raw)
        tickets = [
            self._submit(Direction.COMPRESS, chunk, len(chunk) * scale,
                         self.config.algo)
            for chunk in chunks
        ]
        out = bytearray()
        for ticket, chunk in zip(tickets, chunks):
            response = yield from ticket.wait()
            out += writer.frame(chunk, response.payload)
        return bytes(out + writer.end())

    # -- decompress --------------------------------------------------------

    def decompress(self, container: bytes, sim_bytes: float | None = None) -> Generator:
        """Sim process: decode an RST1 container through the gateway."""
        reader = FrameReader()
        frames = reader.parser.feed(bytes(container))
        reader.close()  # truncated: raise before any request goes out
        end = frames.pop()
        total = sum(f.raw_len for f in frames)
        scale = (sim_bytes / total) if sim_bytes and total else 1.0
        # The gateway runs the real codec at submit time, so an
        # undecodable chunk payload surfaces here.
        with reader.undecodable():
            tickets = [
                self._submit(Direction.DECOMPRESS, f.payload,
                             f.raw_len * scale, reader.algo)
                for f in frames
            ]
        parts: list[bytes] = []
        for frame, ticket in zip(frames, tickets):
            response = yield from ticket.wait()
            parts.append(reader.check(frame, response.payload))
        reader.check(end)
        return b"".join(parts)

    # -- internals ---------------------------------------------------------

    def _submit(self, direction: Direction, payload: bytes, sim_bytes: float,
                algo: Algo):
        self._req_seq += 1
        return self.gateway.submit(
            ServeRequest(
                direction=direction,
                payload=payload,
                sim_bytes=sim_bytes,
                req_id=("stream", self._req_seq),
                tenant=self.tenant,
                algo=algo,
            )
        )
