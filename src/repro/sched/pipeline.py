"""Bounded-depth, pipelined work-queue scheduler for C-Engine jobs.

One engine job has three stages, each on a different simulated
resource, so consecutive jobs overlap like an assembly line:

* **map** (``sched.map``) — allocate + DMA-register the job's buffer
  (the per-byte registration cost of :mod:`repro.doca.buffers`).  The
  scheduler keeps a small double-buffered *ring* of ``depth + 1``
  mapped buffers: only the first ``depth + 1`` jobs pay the map cost,
  later jobs reuse a drained ring slot for free (or the caller supplies
  a PEDAL :class:`~repro.core.mempool.MemoryPool` and hits it instead).
* **exec** (``sched.exec``) — the C-Engine job itself
  (:meth:`~repro.dpu.cengine.CEngine.submit`); the engine's single-
  server FIFO serialises this stage, so exec time is the pipeline's
  steady-state bottleneck.
* **drain** (``sched.drain``) — completion handling: the output CRC is
  verified on an SoC core (the wire formats' checksum layer standing in
  for the DOCA job-completion CRC), overlapping the next job's exec.

Admission is bounded by ``depth`` queue slots
(:class:`~repro.sim.resources.Resource`): at most ``depth`` jobs are
in flight, the rest wait FIFO — ZipLine-style bounded queueing rather
than unbounded batching.

Fault interplay (:mod:`repro.faults`): a failed or stalled engine job
**releases its queue slot** before backing off, so other jobs keep the
pipeline busy during the wait; the retry then *re-enters* the pipeline
through a fresh slot request.  A job the engine cannot run at all is
stolen up front.  Once the retry budget is exhausted the job is
work-stolen by the SoC (``soc_fallback=True``, the PEDAL
capability-fallback mirror) or the final DOCA error propagates
(``soc_fallback=False``, raw-SDK semantics).  Output bytes never depend
on scheduling: payloads flow through untouched (corrupted engine output
is detected at drain and re-executed), so pipelined runs are
byte-identical to serial (``depth=1``) runs — only the sim clock
improves.

What each stage costs is the job's charge plan
(:func:`repro.plan.charges.job_plan`); this module only decides when
and on which resource the plan's stages run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Iterable

from repro.dpu.specs import Algo, Direction
from repro.errors import DocaCapabilityError, DocaTransientError
from repro.faults.plan import get_fault_plan
from repro.faults.policy import RetryPolicy, backoff_wait
from repro.obs import NULL_SPAN, device_span, get_metrics, get_tracer
from repro.obs.metrics import RETRY_ATTEMPT_BUCKETS
from repro.plan.charges import PHASE_EXEC, job_plan, steal_stage
from repro.sim import Resource, Store, TimeBreakdown
from repro.util.checksums import crc32

if TYPE_CHECKING:
    from repro.core.mempool import MemoryPool
    from repro.dpu.device import BlueFieldDPU
    from repro.sim.engine import Process

__all__ = [
    "SchedConfig",
    "EngineJob",
    "JobOutcome",
    "JobTicket",
    "PipelineScheduler",
]


@dataclass(frozen=True)
class SchedConfig:
    """Pipeline shape and failure policy."""

    depth: int = 2                 # queue slots: max jobs in flight
    soc_fallback: bool = True      # work-steal exhausted jobs to the SoC
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    @property
    def ring_size(self) -> int:
        # depth + 1 gives classic double buffering at depth 1: one
        # buffer in exec/drain while the next job maps into the other.
        return self.depth + 1


@dataclass(frozen=True)
class EngineJob:
    """One unit of work for the pipeline.

    ``sim_bytes`` is the size the *C-Engine* ingests: uncompressed
    bytes on the compress direction, compressed bytes on decompress
    (the engine reads the compressed stream).  When the two domains
    differ — decompress jobs — ``soc_sim_bytes`` carries the
    uncompressed size, which is the SoC cost-model convention; the
    work-steal lane and the drain CRC (both of which touch the
    *decompressed* bytes) bill against it.
    """

    algo: Algo
    direction: Direction
    sim_bytes: float
    payload: bytes | None = None  # real output bytes (drain CRC-verifies them)
    tag: object = None            # caller's correlation key
    # Uncompressed size for decompress jobs (None = same as sim_bytes).
    soc_sim_bytes: float | None = None

    def __init__(self, algo: Algo, direction: Direction, sim_bytes: float,
                 payload: "bytes | None" = None, tag: object = None,
                 soc_sim_bytes: "float | None" = None) -> None:
        if sim_bytes < 0:
            raise ValueError(f"negative job size {sim_bytes}")
        if soc_sim_bytes is not None and soc_sim_bytes < 0:
            raise ValueError(f"negative SoC job size {soc_sim_bytes}")
        # Direct instance-dict stores (see ServeRequest.__init__): one
        # job is built per served batch.  Instances stay frozen.
        fields = self.__dict__
        fields["algo"] = algo
        fields["direction"] = direction
        fields["sim_bytes"] = sim_bytes
        fields["payload"] = payload
        fields["tag"] = tag
        fields["soc_sim_bytes"] = soc_sim_bytes

    @property
    def soc_bytes(self) -> float:
        """Bytes an SoC core processes for this job (uncompressed)."""
        return self.sim_bytes if self.soc_sim_bytes is None else self.soc_sim_bytes


@dataclass(slots=True)
class JobOutcome:
    """Everything the scheduler learned about one completed job."""

    index: int
    tag: object
    engine: str                   # "cengine" | "soc"
    attempts: int                 # engine submissions (0 on a pure SoC job)
    submitted_at: float
    completed_at: float
    breakdown: TimeBreakdown
    payload: bytes | None

    @property
    def seconds(self) -> float:
        return self.completed_at - self.submitted_at

    @property
    def exec_seconds(self) -> float:
        return self.breakdown.get(PHASE_EXEC)


class JobTicket:
    """Handle to an in-flight pipeline job (awaitable from any process)."""

    __slots__ = ("index", "job", "_proc")

    def __init__(self, index: int, job: EngineJob, proc: "Process") -> None:
        self.index = index
        self.job = job
        self._proc = proc

    @property
    def event(self) -> "Process":
        """The completion event (fires with the :class:`JobOutcome`)."""
        return self._proc

    @property
    def done(self) -> bool:
        return self._proc.processed

    def wait(self) -> Generator:
        """Yield until the job completes; returns its :class:`JobOutcome`."""
        outcome = yield self._proc
        return outcome


class _RingBuffer:
    """One reusable DMA-mapped slot of the scheduler's buffer ring."""

    __slots__ = ("capacity",)

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity


class PipelineScheduler:
    """Pipelined job execution against one device's C-Engine."""

    def __init__(
        self,
        device: "BlueFieldDPU",
        config: SchedConfig | None = None,
        pool: "MemoryPool | None" = None,
        metrics=None,
    ) -> None:
        self.device = device
        self.config = config or SchedConfig()
        self.pool = pool
        # Optional per-worker registry (fleet telemetry): when set, this
        # scheduler reports there instead of the process-wide registry.
        self._metrics_override = metrics
        self._slots = Resource(device.env, capacity=self.config.depth,
                               obs_name="sched")
        self._ring: Store = Store(device.env)
        self._ring_mapped = 0
        self._submitted = 0
        self.jobs_completed = 0
        self.jobs_stolen = 0  # work-stolen to the SoC

    def _metrics(self):
        """The registry this scheduler reports into: its own labeled
        per-worker registry when one was injected, else the global."""
        if self._metrics_override is not None:
            return self._metrics_override
        return get_metrics()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, job: EngineJob) -> JobTicket:
        """Enter one job into the pipeline; returns its ticket.

        Raises :class:`~repro.errors.DocaCapabilityError` immediately if
        the device cannot run the job and SoC fallback is disabled.
        """
        if not self.config.soc_fallback and not self.device.cengine.supports(
            job.algo, job.direction
        ):
            raise DocaCapabilityError(
                f"{self.device.name} C-Engine does not support "
                f"{job.algo.value} {job.direction.value} "
                "(and soc_fallback is disabled)"
            )
        index = self._submitted
        self._submitted += 1
        proc = self.device.env.process(
            self._run(index, job), name=f"sched:{self.device.name}:{index}"
        )
        return JobTicket(index, job, proc)

    def submit_many(self, jobs: Iterable[EngineJob]) -> Generator:
        """Pipeline a batch; returns :class:`JobOutcome` list in job order."""
        tickets = [self.submit(job) for job in jobs]
        if not tickets:
            return []
        outcomes = yield self.device.env.all_of([t.event for t in tickets])
        return outcomes

    @property
    def in_flight(self) -> int:
        return self._slots.in_use

    @property
    def queued(self) -> int:
        return self._slots.queue_length

    # ------------------------------------------------------------------
    # The pipeline itself
    # ------------------------------------------------------------------

    def _run(self, index: int, job: EngineJob) -> Generator:
        env = self.device.env
        breakdown = TimeBreakdown()
        submitted_at = env.now
        metrics = self._metrics()
        if metrics.recording:
            metrics.inc("sched.jobs")
        plan = job_plan(self.device, job.algo, job.direction,
                        job.sim_bytes, job.soc_bytes)

        if len(plan) == 1:
            # Capability-matrix reject: the plan is the SoC steal alone.
            yield from self._soc_lane(index, job, steal_stage(plan),
                                      breakdown, reason="capability")
            return self._finish(index, job, "soc", 0, submitted_at, breakdown)
        map_stage, exec_stage, drain_stage = plan

        policy = self.config.retry
        attempts = 0
        while True:
            attempts += 1
            slot = self._slots.request()
            yield slot
            if metrics.recording:
                self._note_occupancy(metrics)
            buf = None
            failure: DocaTransientError | str | None = None
            try:
                buf = yield from self._map_stage(index, job, map_stage,
                                                 breakdown)
                try:
                    span = device_span(
                        "sched.exec", self.device,
                        job=index, attempt=attempts,
                        algo=job.algo.value, direction=job.direction.value,
                        bytes=job.sim_bytes,
                    ) if get_tracer().recording else NULL_SPAN
                    with span:
                        seconds = yield from self.device.cengine.submit(
                            *exec_stage[3])
                    breakdown.add(PHASE_EXEC, seconds)
                except DocaTransientError as exc:
                    # Time the engine burned before failing still counts
                    # against this job's exec stage.
                    if exc.sim_seconds > 0:
                        breakdown.add(PHASE_EXEC, exc.sim_seconds)
                    failure = exc
                else:
                    clean = yield from self._drain_stage(index, job,
                                                         drain_stage, breakdown)
                    if not clean:
                        failure = "output corruption detected at drain"
            finally:
                # The slot (and ring buffer) frees before any backoff
                # wait: a stalled/failed job must not starve the queue.
                if buf is not None:
                    self._release_buffer(buf)
                self._slots.release(slot)
                if metrics.recording:
                    self._note_occupancy(metrics)

            if failure is None:
                return self._finish(
                    index, job, "cengine", attempts, submitted_at, breakdown
                )

            if metrics.recording:
                metrics.inc("sched.retries")
                metrics.observe("faults.attempts", float(attempts),
                                RETRY_ATTEMPT_BUCKETS)
            if attempts >= policy.max_attempts:
                if not self.config.soc_fallback:
                    if isinstance(failure, DocaTransientError):
                        raise failure
                    raise DocaTransientError(failure)
                yield from self._soc_lane(index, job, steal_stage(plan),
                                          breakdown, reason="retry_budget")
                return self._finish(
                    index, job, "soc", attempts, submitted_at, breakdown
                )
            # Retry re-enters the pipeline: backoff outside the slot,
            # then loop back to a fresh slot request.
            yield from backoff_wait(self.device, policy, attempts, breakdown)

    # -- stages -----------------------------------------------------------

    def _map_stage(self, index: int, job: EngineJob, stage: tuple,
                   breakdown: TimeBreakdown) -> Generator:
        """Acquire a DMA-mapped buffer big enough for the job."""
        device = self.device
        t0 = device.env.now
        span = device_span(
            "sched.map", device, job=index, bytes=job.sim_bytes,
        ) if get_tracer().recording else NULL_SPAN
        with span:
            if self.pool is not None:
                buf = yield from self.pool.acquire()
                span.set_attr("source", "mempool")
            elif self._ring_mapped < self.config.ring_size and not len(self._ring):
                # Cold ring slot: pay the full allocation + registration
                # cost (the naive per-op "buffer preparation" of Fig. 7).
                self._ring_mapped += 1
                yield device.env.timeout(stage[2])
                buf = _RingBuffer(job.sim_bytes)
                span.set_attr("source", "ring_map")
            else:
                buf = yield self._ring.get()
                if buf.capacity < job.sim_bytes:
                    # Undersized slot: re-register at the larger size.
                    yield device.env.timeout(stage[2])
                    buf.capacity = job.sim_bytes
                    span.set_attr("source", "ring_grow")
                else:
                    span.set_attr("source", "ring_reuse")
        breakdown.add(stage[0], device.env.now - t0)
        return buf

    def _release_buffer(self, buf) -> None:
        if self.pool is not None:
            self.pool.release(buf)
        else:
            self._ring.put(buf)

    def _drain_stage(self, index: int, job: EngineJob, stage: tuple,
                     breakdown: TimeBreakdown) -> Generator:
        """Completion handling: the plan bills the CRC over the job's
        *output* bytes (``soc_bytes``, the uncompressed side on
        decompress); returns False when the output failed it."""
        device = self.device
        phase, _, seconds, _, _ = stage
        span = device_span(
            "sched.drain", device, job=index, bytes=job.sim_bytes,
        ) if get_tracer().recording else NULL_SPAN
        with span:
            yield from device.soc.run(seconds)
            breakdown.add(phase, seconds)
            if job.payload is None:
                return True
            plan = get_fault_plan()
            if not plan.active:
                return True
            damaged, corrupted = plan.corrupt_engine_output(
                f"{device.name}.{job.algo.value}.{job.direction.value}",
                job.payload, device.env.now,
            )
            if not corrupted or crc32(damaged) == crc32(job.payload):
                return True
            span.set_attr("fault", "corrupt_output")
            metrics = self._metrics()
            if metrics.recording:
                metrics.inc("faults.corruptions_detected")
        return False

    def _soc_lane(self, index: int, job: EngineJob, stage: tuple,
                  breakdown: TimeBreakdown, reason: str) -> Generator:
        """Work-steal: run the job's SoC ``stage`` on a core instead
        (billed against the uncompressed ``soc_bytes``, the convention
        the SoC throughputs are calibrated in)."""
        device = self.device
        metrics = self._metrics()
        if metrics.recording:
            metrics.inc("sched.soc_steals")
        self.jobs_stolen += 1
        phase, _, seconds, _, _ = stage
        with device_span(
            "sched.exec", self.device,
            job=index, engine="soc", steal_reason=reason,
            algo=job.algo.value, direction=job.direction.value,
            bytes=job.sim_bytes,
        ):
            yield from device.soc.run(seconds)
        breakdown.add(phase, seconds)

    # -- bookkeeping ------------------------------------------------------

    def _note_occupancy(self, metrics) -> None:
        metrics.set_gauge("sched.occupancy", float(self._slots.in_use))

    def _finish(self, index: int, job: EngineJob, engine: str, attempts: int,
                submitted_at: float, breakdown: TimeBreakdown) -> JobOutcome:
        self.jobs_completed += 1
        metrics = self._metrics()
        if metrics.recording:
            metrics.inc(f"sched.completed.{engine}")
        return JobOutcome(
            index=index,
            tag=job.tag,
            engine=engine,
            attempts=attempts,
            submitted_at=submitted_at,
            completed_at=self.device.env.now,
            breakdown=breakdown,
            payload=job.payload,
        )
