"""Parallel chunked compression across SoC cores and the C-Engine.

Paper §IV: "future developments could involve various compression
designs using the SoC and C-Engine to achieve parallel compression and
decompression", and §V-C2 notes "a prospective hybrid design avenue for
exploiting both SoC and C-Engine in parallel".  This module implements
that design as an experimental extension:

* the payload splits into ``n_chunks`` independent chunks;
* each chunk is a self-contained DEFLATE stream, so chunks compress and
  decompress concurrently — SoC chunks fan out across the core pool
  while engine-bound chunks flow through a bounded-depth pipelined work
  queue (:mod:`repro.sched`) that overlaps buffer mapping, C-Engine
  execution, and result drain across consecutive chunks;
* chunks the capability matrix rejects — or that exhaust their engine
  retry budget under fault injection — are work-stolen by the SoC, so
  the container completes regardless of engine health;
* the container is RST1 (:mod:`repro.stream`): one DEFLATE data frame
  per non-empty chunk, then the end frame.  Its ``chunk_bytes`` is
  ``ceil(len / n_chunks)``, which bounds every chunk, so any RST1
  decoder reads it back.

Chunk bytes are compressed eagerly, before any simulated scheduling, so
the container is byte-identical whatever the queue depth, device, or
fault plan — only the simulated clock changes.  They come from the
real-codec memo (:func:`~repro.plan.codecs.real_compress` under
``SoC_DEFLATE``, :func:`~repro.plan.codecs.real_decompress` capped at
each frame's ``raw_len``), so a repeated round trip of the same payload
runs the codec only once per distinct chunk and direction.

Chunk independence costs a little ratio (no cross-chunk matches); the
simulated speedup approaches ``min(n_chunks, n_cores)`` for SoC-only
runs and better when the engine helps.  The ablation bench
(``benchmarks/test_ablation_parallel.py``) quantifies both effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

from repro.dpu.device import BlueFieldDPU
from repro.dpu.specs import Algo, Direction
from repro.errors import StreamCorruptError
from repro.plan.charges import job_plan, steal_stage
from repro.plan.codecs import CodecConfig, real_compress, real_decompress
from repro.plan.designs import design
from repro.sched import EngineJob, PipelineScheduler, SchedConfig
from repro.sim import TimeBreakdown
from repro.stream.api import FrameReader, FrameWriter, StreamConfig

__all__ = ["ParallelConfig", "ParallelResult", "ParallelCompressor"]

# Whose memo entries the chunks share: the bytes are placement-free.
_DESIGN = design("SoC_DEFLATE")
_CODECS = CodecConfig()


@dataclass(frozen=True)
class ParallelConfig:
    """Chunking and placement policy."""

    n_chunks: int = 8
    use_cengine: bool = True  # one chunk stream may use the engine
    # Work-queue depth for engine-bound chunks: 1 = serial (map, exec,
    # drain complete before the next chunk starts), >= 2 pipelines the
    # stages across chunks (double buffering).
    pipeline_depth: int = 2

    def __post_init__(self) -> None:
        if self.n_chunks < 1:
            raise ValueError("n_chunks must be >= 1")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")


@dataclass
class ParallelResult:
    """One parallel compression/decompression with its accounting."""

    payload: bytes
    original_bytes: int
    breakdown: TimeBreakdown
    chunks_on_engine: int
    chunks_on_soc: int

    @property
    def sim_seconds(self) -> float:
        return self.breakdown.total()


def _split_even(data: "bytes | memoryview", parts: int) -> list[bytes]:
    """Split ``data`` into ``parts`` slices, the first ``len % parts`` one
    byte longer.  Bytes, not views: the memo fingerprints each chunk's
    bytes anyway, and a ``bytes`` slice is hashed and encoded uncopied."""
    raw = bytes(data)
    base, rem = divmod(len(raw), parts)
    out = []
    pos = 0
    for i in range(parts):
        take = base + (1 if i < rem else 0)
        out.append(raw[pos : pos + take])
        pos += take
    return out


def _engine_chunks(
    device: BlueFieldDPU,
    plan: tuple,
    n_chunks: int,
    engine_bytes: "list[float] | None",
) -> int:
    """Number of chunks the C-Engine lane should take (0..n_chunks).

    ``plan`` is one even chunk's :func:`~repro.plan.charges.job_plan`;
    the engine serves at most one chunk stream (it is a single-server
    queue, so more streams would just queue), none where it lacks the
    direction.  The split is the argmin over ``k`` of the steady-state
    makespan ``max(lane(k), ceil((n - k) / cores) * t_steal)`` — exec
    dominates the pipelined lane once map and drain overlap: ``lane(k)``
    is ``k * t_exec`` for an even split, or the running sum of the first
    ``k`` exec stages when ``engine_bytes`` carries the decompress
    direction's unequal compressed chunk sizes.  (BENCH_PR3.json gates
    the splits bit-for-bit, so the two sums stay exactly these.)
    """
    if len(plan) == 1:
        return 0
    _, exec_stage, _ = plan
    algo, direction, chunk_bytes = exec_stage[3]
    if engine_bytes is None:
        lane = [k * exec_stage[2] for k in range(n_chunks + 1)]
    else:
        lane = [0.0]
        for size in engine_bytes:
            lane.append(lane[-1] + job_plan(
                device, algo, direction, size, chunk_bytes)[1][2])
    t_soc = steal_stage(plan)[2]
    cores = device.soc.cores.capacity
    return min(
        range(n_chunks + 1),
        key=lambda k: max(lane[k], math.ceil((n_chunks - k) / cores) * t_soc),
    )


class ParallelCompressor:
    """Chunk-parallel DEFLATE over one device's SoC pool (+ C-Engine)."""

    def __init__(self, device: BlueFieldDPU, config: ParallelConfig | None = None) -> None:
        self.device = device
        self.config = config or ParallelConfig()

    def compress(self, data: bytes, sim_bytes: float | None = None) -> Generator:
        """Compress ``data`` chunk-parallel; returns :class:`ParallelResult`."""
        cfg = self.config
        sim_total = float(len(data) if sim_bytes is None else sim_bytes)
        chunks = [chunk for chunk in _split_even(data, cfg.n_chunks) if chunk]
        compressed = [real_compress(_DESIGN, chunk, _CODECS).payload
                      for chunk in chunks]
        writer = FrameWriter(
            StreamConfig(chunk_bytes=-(-len(data) // cfg.n_chunks) or 1))
        container = b"".join(
            writer.frame(chunk, blob) for chunk, blob in zip(chunks, compressed)
        ) + writer.end()

        breakdown, n_engine, n_soc = yield from self._fan_out(
            Direction.COMPRESS, compressed, sim_total)
        return ParallelResult(
            payload=container,
            original_bytes=len(data),
            breakdown=breakdown,
            chunks_on_engine=n_engine,
            chunks_on_soc=n_soc,
        )

    def decompress(self, payload: bytes, sim_bytes: float | None = None) -> Generator:
        """Inverse of :meth:`compress`; returns :class:`ParallelResult`
        whose ``payload`` is the reassembled original data.

        Every error is a typed :class:`~repro.errors.StreamError`, the
        same class :func:`repro.stream.stream_decompress` raises.
        """
        reader = FrameReader()
        frames = reader.parser.feed(payload)
        if reader.algo not in (None, Algo.DEFLATE):
            raise StreamCorruptError(
                f"parallel containers are DEFLATE, not {reader.algo.value}")
        pieces = []
        for frame in frames:
            raw = b""
            if not frame.is_end:
                with reader.undecodable():
                    raw, _ = real_decompress(
                        Algo.DEFLATE, frame.payload, frame.raw_len)
                pieces.append(raw)
            reader.check(frame, raw)
        reader.close()
        data = b"".join(pieces)

        sim_total = float(len(data) if sim_bytes is None else sim_bytes)
        # The C-Engine ingests the *compressed* stream on the decompress
        # direction, so engine-bound chunk jobs bill on the per-chunk
        # compressed sizes from the frames, scaled into the simulated
        # domain like every other actual→sim conversion.  SoC chunks
        # keep the uncompressed-bytes convention (that is what the SoC
        # decompress throughputs are calibrated against).
        scale = sim_total / len(data) if data else 1.0
        engine_bytes = [len(frame.payload) * scale for frame in frames[:-1]]
        breakdown, n_engine, n_soc = yield from self._fan_out(
            Direction.DECOMPRESS, pieces, sim_total, engine_bytes)
        return ParallelResult(
            payload=data,
            original_bytes=len(data),
            breakdown=breakdown,
            chunks_on_engine=n_engine,
            chunks_on_soc=n_soc,
        )

    def _fan_out(
        self,
        direction: Direction,
        payloads: "list[bytes]",
        sim_total: float,
        engine_bytes: "list[float] | None" = None,
    ) -> Generator:
        """Run one chunk job per payload concurrently; returns
        (breakdown, n_engine, n_soc).

        ``engine_bytes`` overrides the per-chunk size billed to the
        C-Engine (the decompress direction passes the scaled compressed
        chunk sizes here); SoC billing always uses the even
        uncompressed split.

        Engine-bound chunks flow through a bounded-depth pipelined work
        queue (:class:`~repro.sched.PipelineScheduler`) that overlaps
        buffer mapping, C-Engine execution, and result drain across
        consecutive chunks; the remaining chunks fan out over SoC
        cores.  The chunk split (:func:`_engine_chunks`) minimises the
        steady-state makespan — with the engine orders of magnitude
        faster it usually takes every chunk, which is itself an
        instructive outcome.  Chunks the engine gives up on mid-stream
        (fault injection past the retry budget) are work-stolen by the
        SoC inside the scheduler; the returned engine/SoC counts
        reflect where each chunk actually executed.
        """
        n_chunks = len(payloads)
        if not n_chunks:  # empty input: nothing framed, nothing to run
            return TimeBreakdown(), 0, 0
        device = self.device
        env = device.env
        chunk_bytes = sim_total / n_chunks
        plan = job_plan(device, Algo.DEFLATE, direction, chunk_bytes,
                        chunk_bytes)
        n_engine = (_engine_chunks(device, plan, n_chunks, engine_bytes)
                    if self.config.use_cengine else 0)
        n_soc = n_chunks - n_engine
        t_soc = steal_stage(plan)[2]

        def soc_chunk(env):
            yield from device.soc.run(t_soc)

        t0 = env.now
        procs = []
        engine_proc = None
        if n_engine:
            scheduler = PipelineScheduler(
                device, SchedConfig(depth=self.config.pipeline_depth)
            )
            jobs = [
                EngineJob(
                    Algo.DEFLATE,
                    direction,
                    chunk_bytes if engine_bytes is None else engine_bytes[i],
                    payload=payloads[i],
                    tag=i,
                    soc_sim_bytes=None if engine_bytes is None else chunk_bytes,
                )
                for i in range(n_engine)
            ]
            engine_proc = env.process(scheduler.submit_many(jobs))
            procs.append(engine_proc)
        for _ in range(n_soc):
            procs.append(env.process(soc_chunk(env)))
        yield env.all_of(procs)
        if engine_proc is not None:
            outcomes = engine_proc.value
            n_engine = sum(1 for o in outcomes if o.engine == "cengine")
            n_soc = n_chunks - n_engine
        breakdown = TimeBreakdown()
        phase = "compression" if direction is Direction.COMPRESS else "decompression"
        breakdown.add(phase, env.now - t0)
        return breakdown, n_engine, n_soc
