"""ZipLine-style streaming rendezvous: compression *in* the fabric path.

The whole-message PEDAL path serializes three long stages — sender
codec, wire transfer, receiver codec.  Here the payload is chunked
through :mod:`repro.stream`'s RST1 container and the three stages
overlap per chunk: while chunk *k* crosses the wire, chunk *k+1* is
still compressing and chunk *k-1* is already decompressing on the
receiver.  Real bytes are a ``FrameWriter``'s frames read back by a
``FrameReader`` (so the wire format is exactly the shared container,
byte-identical to a one-shot :func:`~repro.stream.stream_compress`),
while simulated time is charged per chunk on the design's placement:

* ``Placement.CENGINE`` — per-chunk :class:`~repro.sched.EngineJob`
  through a bounded :class:`~repro.sched.PipelineScheduler` (engine
  FIFO + per-job overhead; non-native algos SoC-steal as usual);
* ``Placement.SOC`` — per-chunk core occupancy on the SoC pool,
  bounded by ``stream_depth`` in-flight chunks.

Streamed messages are rendezvous *by construction*: streaming applies
only above the compress threshold, and the protocol decision is pinned
to the same pre-compression size (see :func:`repro.mpi.protocol.
protocol_for`).  The RTS/CTS handshake is unchanged; the data phase
ships one fabric transfer per container frame and the receiver
consumes frames from a :class:`~repro.sim.Store` as they land.

Per-chunk sim sizes follow the core scaling convention: ``scale =
sim_bytes / len(raw)`` maps every real chunk/frame length into the
simulated byte domain, so the streamed wire total equals the real
container size times the same scale the whole-message path uses.

Chunk bytes come from the real-codec memo
(:func:`~repro.plan.codecs.real_compress` /
:func:`~repro.plan.codecs.real_decompress`), like every whole-message
send: an echoed or relayed stream re-sends the same chunks, so only the
first pass runs the codec.  Each chunk decodes under a cap of its
frame's ``raw_len``, memo hit or not, so a frame that understates its
length fails with the same typed error either way.  The memo changes
host time only; wire bytes and the simulated clock do not depend on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.dpu.specs import Direction
from repro.errors import StreamError
from repro.mpi.protocol import Envelope, Protocol, should_compress
from repro.obs import device_span
from repro.plan.charges import op_plan
from repro.plan.codecs import real_compress, real_decompress
from repro.plan.designs import CompressionDesign, Placement
from repro.sched import EngineJob, PipelineScheduler, SchedConfig
from repro.sim import Event, Resource, Store
from repro.stream import ALGO_IDS, Frame, FrameReader, FrameWriter, StreamConfig

if TYPE_CHECKING:
    from repro.mpi.runtime import RankContext

__all__ = ["wants_stream", "stream_send", "stream_recv"]

_END = None  # Store sentinel: all frames delivered


def wants_stream(layer, data, sim_bytes: float) -> bool:
    """Whether this send should take the streaming rendezvous path."""
    cfg = layer.config
    if not cfg.streaming or layer.pedal is None:
        return False
    dsg = cfg.resolved_design()
    if dsg is None or dsg.algo not in ALGO_IDS:
        return False  # lossy / two-stage designs stay whole-message
    if not isinstance(data, (bytes, bytearray, memoryview)):
        return False
    if len(data) == 0:
        return False
    return should_compress(sim_bytes, cfg.eager_threshold)


class _ChunkEngine:
    """Bounded per-chunk codec-time model for one streamed message."""

    def __init__(self, device, design: CompressionDesign, depth: int) -> None:
        self.device = device
        self.design = design
        if design.placement is Placement.CENGINE:
            self._sched = PipelineScheduler(device, SchedConfig(depth=depth))
            self._slots = None
        else:
            self._sched = None
            self._slots = Resource(device.env, capacity=depth)

    def submit(self, direction: Direction, engine_sim_bytes: float,
               raw_sim_bytes: float, tag: object):
        """Start one chunk's codec work; returns a yieldable event."""
        if self._sched is not None:
            job = EngineJob(
                algo=self.design.algo,
                direction=direction,
                sim_bytes=engine_sim_bytes,
                soc_sim_bytes=raw_sim_bytes,
                tag=tag,
            )
            return self._sched.submit(job).event
        return self.device.env.process(
            self._soc_chunk(direction, raw_sim_bytes),
            name=f"stream-soc:{self.device.name}:{tag}",
        )

    def _soc_chunk(self, direction: Direction, raw_sim_bytes: float) -> Generator:
        # SoC codec throughputs are calibrated against uncompressed
        # bytes in both directions; the slot bounds in-flight chunks so
        # one streamed message cannot monopolise the core pool.
        assert self._slots is not None
        slot = self._slots.request()
        yield slot
        try:
            ((_, _, seconds, _, _),) = op_plan(
                self.device, self.design.algo, Placement.SOC, direction,
                raw_sim_bytes)
            yield from self.device.soc.run(seconds)
        finally:
            self._slots.release(slot)


def stream_send(
    ctx: "RankContext", dest: int, data, tag: int, sim_bytes: float
) -> Generator:
    """Send ``data`` as a streamed rendezvous message."""
    layer = ctx.layer
    cfg = layer.config
    dsg = cfg.resolved_design()
    assert dsg is not None
    raw = bytes(data)
    scale = sim_bytes / len(raw)

    # Real bytes: one wire frame per chunk, cut up front (wall-clock
    # work), the end frame riding with the last; sim time for each
    # chunk's codec is charged below, overlapped.
    writer = FrameWriter(StreamConfig(
        algo=dsg.algo, chunk_bytes=cfg.stream_chunk_bytes, codecs=cfg.codecs
    ))
    chunks = writer.split(raw)
    frames = [writer.frame(chunk, real_compress(dsg, chunk, cfg.codecs).payload)
              for chunk in chunks]
    frames[-1] += writer.end()
    wire_total = sum(len(f) for f in frames) * scale

    env = ctx.env
    store = Store(env)
    meta = {
        "stream": True,
        "compressed": True,
        "raw": False,
        "sim_uncompressed": sim_bytes,
        "design": dsg,
        "scale": scale,
        "chunks": len(frames),
    }
    envlp = Envelope(
        source=ctx.rank,
        dest=dest,
        tag=tag,
        protocol=Protocol.RENDEZVOUS,
        payload=store,
        wire_bytes=wire_total,
        meta=meta,
        cts=Event(env),
        data_ready=Event(env),
    )

    comm = ctx.comm
    comm.messages_sent += 1
    with device_span(
        "mpi.stream_send", ctx.device,
        rank=ctx.rank, dest=dest, tag=tag,
        sim_bytes=sim_bytes, wire_bytes=wire_total, chunks=len(frames),
    ):
        yield from comm.fabric.control(ctx.rank, dest)  # RTS
        comm._arrive(envlp)
        yield envlp.cts

        engine = _ChunkEngine(ctx.device, dsg, cfg.stream_depth)
        t0 = env.now
        tickets = [
            engine.submit(
                Direction.COMPRESS,
                engine_sim_bytes=len(chunk) * scale,
                raw_sim_bytes=len(chunk) * scale,
                tag=i,
            )
            for i, chunk in enumerate(chunks)
        ]
        for ticket, frame_bytes in zip(tickets, frames):
            yield ticket  # chunk compressed
            yield from comm.fabric.transfer(
                ctx.rank, dest, len(frame_bytes) * scale
            )
            store.put(frame_bytes)
        layer.compress_seconds += env.now - t0
        store.put(_END)
        envlp.data_ready.succeed()


def _decode(reader: FrameReader, frame: Frame) -> bytes:
    """One parsed frame's checked raw bytes (``b""`` for the end frame)."""
    if frame.is_end:
        return reader.check(frame)
    with reader.undecodable():
        raw, _ = real_decompress(reader.algo, frame.payload, frame.raw_len)
    return reader.check(frame, raw)


def stream_recv(ctx: "RankContext", envlp: Envelope) -> Generator:
    """Receive and decode a streamed rendezvous message."""
    meta = envlp.meta
    dsg: CompressionDesign = meta["design"]
    scale: float = meta["scale"]
    store: Store = envlp.payload
    cfg = ctx.layer.config
    env = ctx.env

    engine = _ChunkEngine(ctx.device, dsg, cfg.stream_depth)
    reader = FrameReader()
    parts: list[bytes] = []
    tickets = []
    t0 = env.now
    with device_span(
        "mpi.stream_recv", ctx.device,
        rank=ctx.rank, source=envlp.source, tag=envlp.tag,
        wire_bytes=envlp.wire_bytes, chunks=meta["chunks"],
    ):
        while True:
            frame_bytes = yield store.get()
            if frame_bytes is _END:
                break
            raw = b"".join(_decode(reader, frame)
                           for frame in reader.parser.feed(frame_bytes))
            parts.append(raw)
            # Decode time overlaps later transfers: the codec job is
            # submitted as soon as this frame lands, and the loop goes
            # straight back to waiting on the next frame.
            tickets.append(
                engine.submit(
                    Direction.DECOMPRESS,
                    engine_sim_bytes=len(frame_bytes) * scale,
                    raw_sim_bytes=len(raw) * scale,
                    tag=reader.chunks_decoded,
                )
            )
        reader.close()  # typed StreamTruncatedError if the sender lied
        if len(parts) != meta["chunks"]:
            raise StreamError(
                f"expected {meta['chunks']} chunks, decoded {len(parts)}"
            )
        for ticket in tickets:
            yield ticket
        ctx.layer.decompress_seconds += env.now - t0
    return b"".join(parts)
