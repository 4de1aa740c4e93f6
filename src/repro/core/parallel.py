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
* a small container records chunk boundaries.

Chunk bytes are compressed eagerly, before any simulated scheduling, so
the container is byte-identical whatever the queue depth, device, or
fault plan — only the simulated clock changes.

Chunk independence costs a little ratio (no cross-chunk matches); the
simulated speedup approaches ``min(n_chunks, n_cores)`` for SoC-only
runs and better when the engine helps.  The ablation bench
(``benchmarks/test_ablation_parallel.py``) quantifies both effects.

Container format (little-endian)::

    magic  b"PPAR"
    u32    n_chunks
    u64[n] compressed chunk sizes
    bytes  concatenated DEFLATE streams
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Generator

from repro.algorithms.deflate import DeflateConfig, deflate_compress, deflate_decompress
from repro.core.charges import job_plan, steal_stage
from repro.dpu.device import BlueFieldDPU
from repro.dpu.specs import Algo, Direction
from repro.errors import CorruptStreamError
from repro.sim import TimeBreakdown

__all__ = ["ParallelConfig", "ParallelResult", "ParallelCompressor"]

_MAGIC = b"PPAR"


@dataclass(frozen=True)
class ParallelConfig:
    """Chunking and placement policy."""

    n_chunks: int = 8
    use_cengine: bool = True  # one chunk stream may use the engine
    deflate: DeflateConfig | None = None
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


def _split_even(data: "bytes | memoryview", parts: int) -> list[memoryview]:
    """Split ``data`` into ``parts`` zero-copy memoryview slices.

    The codecs consume memoryviews directly (slicing stays zero-copy all
    the way into the LZ77 matcher), so chunking a large payload costs no
    byte copies at all.
    """
    view = memoryview(data)
    n = len(view)
    base, rem = divmod(n, parts)
    out = []
    pos = 0
    for i in range(parts):
        take = base + (1 if i < rem else 0)
        out.append(view[pos : pos + take])
        pos += take
    return out


def _engine_chunks(
    device: BlueFieldDPU,
    plan: tuple,
    n_chunks: int,
    engine_bytes: "list[float] | None",
) -> int:
    """Number of chunks the C-Engine lane should take (0..n_chunks).

    ``plan`` is one even chunk's :func:`~repro.core.charges.job_plan`;
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
        chunks = _split_even(data, cfg.n_chunks)
        compressed = [deflate_compress(chunk, cfg.deflate) for chunk in chunks]

        container = bytearray()
        container += _MAGIC
        container += struct.pack("<I", len(compressed))
        for blob in compressed:
            container += struct.pack("<Q", len(blob))
        for blob in compressed:
            container += blob

        breakdown, n_engine, n_soc = yield from self._fan_out(
            Direction.COMPRESS, cfg.n_chunks, sim_total, payloads=compressed
        )
        return ParallelResult(
            payload=bytes(container),
            original_bytes=len(data),
            breakdown=breakdown,
            chunks_on_engine=n_engine,
            chunks_on_soc=n_soc,
        )

    def decompress(self, payload: bytes, sim_bytes: float | None = None) -> Generator:
        """Inverse of :meth:`compress`; returns :class:`ParallelResult`
        whose ``payload`` is the reassembled original data."""
        if len(payload) < 8 or payload[:4] != _MAGIC:
            raise CorruptStreamError("not a PPAR container")
        (n_chunks,) = struct.unpack_from("<I", payload, 4)
        if n_chunks < 1:
            raise CorruptStreamError("PPAR container declares zero chunks")
        pos = 8
        if len(payload) < pos + 8 * n_chunks:
            raise CorruptStreamError("PPAR chunk table truncated")
        sizes = [
            struct.unpack_from("<Q", payload, pos + 8 * i)[0] for i in range(n_chunks)
        ]
        pos += 8 * n_chunks
        # The chunk table must account for the payload *exactly*: a
        # corrupted size field shows up as a short/overlong container
        # here rather than as a mis-framed DEFLATE stream further down.
        if sum(sizes) != len(payload) - pos:
            raise CorruptStreamError(
                f"PPAR chunk table claims {sum(sizes)} payload bytes, "
                f"container carries {len(payload) - pos}"
            )
        pieces = []
        for size in sizes:
            pieces.append(deflate_decompress(payload[pos : pos + size]))
            pos += size
        data = b"".join(pieces)

        sim_total = float(len(data) if sim_bytes is None else sim_bytes)
        # The C-Engine ingests the *compressed* stream on the decompress
        # direction, so engine-bound chunk jobs bill on the per-chunk
        # compressed sizes from the chunk table, scaled into the
        # simulated domain like every other actual→sim conversion.  SoC
        # chunks keep the uncompressed-bytes convention (that is what
        # the SoC decompress throughputs are calibrated against).
        scale = sim_total / len(data) if data else 1.0
        engine_bytes = [size * scale for size in sizes]
        breakdown, n_engine, n_soc = yield from self._fan_out(
            Direction.DECOMPRESS, n_chunks, sim_total, payloads=pieces,
            engine_bytes=engine_bytes,
        )
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
        n_chunks: int,
        sim_total: float,
        payloads: "list[bytes] | None" = None,
        engine_bytes: "list[float] | None" = None,
    ) -> Generator:
        """Run chunk jobs concurrently; returns (breakdown, n_engine,
        n_soc).

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
        from repro.sched import EngineJob, PipelineScheduler, SchedConfig

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
                    payload=payloads[i] if payloads is not None else None,
                    tag=i,
                    soc_sim_bytes=None if engine_bytes is None else chunk_bytes,
                )
                for i in range(n_engine)
            ]
            engine_proc = env.process(scheduler.submit_many(jobs))
            procs.append(engine_proc)
        for _ in range(n_soc):
            procs.append(env.process(soc_chunk(env)))
        if procs:
            yield env.all_of(procs)
        if engine_proc is not None:
            outcomes = engine_proc.value
            n_engine = sum(1 for o in outcomes if o.engine == "cengine")
            n_soc = n_chunks - n_engine
        breakdown = TimeBreakdown()
        phase = "compression" if direction is Direction.COMPRESS else "decompression"
        breakdown.add(phase, env.now - t0)
        return breakdown, n_engine, n_soc
