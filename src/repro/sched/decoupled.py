"""EDPC-style decoupled model/coder pipeline on the SoC core pool.

The ``ac`` codec (:mod:`repro.algorithms.ac`) is two pure stages:
chunk-vectorized context modeling and byte-serial range coding, with a
bounded batch queue between them.  This module is the simulated-hardware
twin of that dataflow: the model stage and the coder stage run as
separate processes on the SoC's ARM core pool
(:class:`~repro.dpu.soc.Soc`), each chunk's
:class:`~repro.algorithms.ac.CodingBatch` crossing a bounded queue —
exactly the shape EDPC uses to keep its entropy coder fed by a
batched probability model.

Because the model adapts only at chunk boundaries, batch *k* never
depends on the coder's output, so the model may run up to
``queue_depth`` chunks ahead.  With at least two SoC cores the stages
overlap and the pipelined makespan approaches
``max(model_total, coder_total)`` instead of their sum; with one core or
one chunk it degenerates to the serial time, never worse.  The split of
the calibrated ``ac`` codec time between the stages is
:data:`~repro.dpu.calibration.AC_MODEL_FRACTION`.

Byte production is delegated to the real codec: the pipelined sim path
runs :func:`~repro.algorithms.ac.ac_compress_pipelined` and the serial
path :func:`~repro.algorithms.ac.ac_compress`, so tests and the
``edpc`` bench can assert the decoupling changes *when* work happens,
never *what* bytes are produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator

from repro.algorithms.ac import (
    DEFAULT_CONFIG,
    ac_compress,
    ac_compress_pipelined,
)
from repro.dpu.calibration import AC_MODEL_FRACTION
from repro.dpu.device import BlueFieldDPU
from repro.dpu.specs import Algo, Direction
from repro.obs import device_span, get_logger
from repro.plan.charges import op_plan
from repro.plan.designs import Placement
from repro.sim import AllOf, Resource, Store

__all__ = ["DecoupledConfig", "DecoupledResult", "DecoupledCodecPipeline"]

log = get_logger("sched")


@dataclass(frozen=True)
class DecoupledConfig:
    """Knobs for the two-stage pipeline."""

    #: Maximum number of coding batches the model stage may run ahead.
    queue_depth: int = 2

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")


@dataclass(frozen=True)
class DecoupledResult:
    """Outcome of one pipelined (or serial) ``ac`` compression run."""

    payload: "bytes | None"  # real codec output (None for sim-only runs)
    sim_seconds: float  # makespan on the simulated clock
    model_seconds: float  # total model-stage work (not makespan)
    coder_seconds: float  # total coder-stage work (not makespan)
    n_chunks: int
    pipelined: bool
    queue_depth: int


class DecoupledCodecPipeline:
    """Drive ``ac`` compression as two overlapped SoC stages."""

    def __init__(
        self, device: BlueFieldDPU, config: "DecoupledConfig | None" = None
    ) -> None:
        self.device = device
        self.config = config or DecoupledConfig()
        self.env = device.env
        self.soc = device.soc

    # -- stage timing ------------------------------------------------------

    def stage_seconds(self, sim_bytes: float) -> "tuple[float, float, int]":
        """(model_total, coder_total, n_chunks) for a message: the
        SoC ``ac`` plan's one stage, split between the two stages."""
        ((_, _, total, _, _),) = op_plan(
            self.device, Algo.AC, Placement.SOC, Direction.COMPRESS, sim_bytes)
        model = total * AC_MODEL_FRACTION
        n_chunks = max(1, math.ceil(sim_bytes / DEFAULT_CONFIG.chunk_bytes))
        return model, total - model, n_chunks

    # -- execution ---------------------------------------------------------

    def run(
        self,
        sim_bytes: float,
        data: "bytes | None" = None,
        pipelined: bool = True,
    ) -> Generator:
        """Simulate one compression; returns a :class:`DecoupledResult`.

        ``data`` (optional) is compressed for real with the matching
        dataflow — :func:`ac_compress_pipelined` when ``pipelined``,
        :func:`ac_compress` otherwise — so byte-identity between the
        two paths is a property of the codec, asserted by tests, not
        assumed here.  Only compression decouples: the decode-side
        model needs chunk *k*'s decoded bytes before it can rank chunk
        *k+1*, so there is no decompress variant.
        """
        model_total, coder_total, n_chunks = self.stage_seconds(sim_bytes)
        payload = None
        if data is not None:
            if pipelined:
                payload = ac_compress_pipelined(
                    data, queue_depth=self.config.queue_depth
                )
            else:
                payload = ac_compress(data)
        started = self.env.now
        with device_span(
            "sched.decoupled",
            self.device,
            sim_bytes=sim_bytes,
            n_chunks=n_chunks,
            pipelined=pipelined,
        ):
            if pipelined:
                yield from self._run_pipelined(model_total, coder_total, n_chunks)
            else:
                yield from self._run_serial(model_total, coder_total, n_chunks)
        elapsed = self.env.now - started
        log.debug(
            "decoupled ac compress: %d chunks %s makespan=%.6fs",
            n_chunks, "pipelined" if pipelined else "serial", elapsed,
        )
        return DecoupledResult(
            payload=payload,
            sim_seconds=elapsed,
            model_seconds=model_total,
            coder_seconds=coder_total,
            n_chunks=n_chunks,
            pipelined=pipelined,
            queue_depth=self.config.queue_depth,
        )

    def _run_serial(
        self, model_total: float, coder_total: float, n_chunks: int
    ) -> Generator:
        """Single-stage baseline: model then code each chunk on one core."""
        per_model = model_total / n_chunks
        per_coder = coder_total / n_chunks
        for _ in range(n_chunks):
            yield from self.soc.run(per_model + per_coder)

    def _run_pipelined(
        self, model_total: float, coder_total: float, n_chunks: int
    ) -> Generator:
        """Model and coder stages as concurrent SoC processes.

        The bounded queue is a Store plus a slot Resource: the model
        acquires a slot before producing a batch and the coder releases
        it once the batch is fully coded, so at most ``queue_depth``
        batches are in flight between the stages.
        """
        env = self.env
        queue = Store(env)
        slots = Resource(env, capacity=self.config.queue_depth)
        per_model = model_total / n_chunks
        per_coder = coder_total / n_chunks

        def model_stage() -> Generator:
            for index in range(n_chunks):
                req = slots.request()
                yield req
                yield from self.soc.run(per_model)
                queue.put((index, req))

        def coder_stage() -> Generator:
            for _ in range(n_chunks):
                index, req = yield queue.get()
                yield from self.soc.run(per_coder)
                slots.release(req)

        producer = env.process(model_stage())
        consumer = env.process(coder_stage())
        yield AllOf(env, [producer, consumer])
