"""The serving gateway: admission → batching → routing → execution.

:class:`ServeGateway` fronts a fleet of simulated DPUs (mixed BF-2 /
BF-3) sharing one sim clock.  A request's life:

1. **codec** — the real codec work (DEFLATE, LZ4, or the adaptive
   -context ``ac`` coder, per ``request.algo``) runs eagerly at submit
   time, so every response's bytes are fixed before any simulated
   scheduling.  Batching, routing, device mix, and faults can only move
   the clock; batched output is byte-identical to unbatched,
   per-request output.
2. **admission** — :class:`~repro.serve.admission.AdmissionController`
   bounds pending requests; overflow is shed with an explicit refusal
   (backpressure, not an unbounded queue).
3. **batching** — :class:`~repro.serve.batcher.Batcher` coalesces
   same-(direction, algo) requests to amortize the C-Engine's fixed
   per-job overhead across messages.
4. **routing** — a pluggable :class:`~repro.serve.router.Router` picks
   the device; each device runs its batches through its own
   :class:`~repro.sched.PipelineScheduler`, so engine faults, retries,
   and SoC work-stealing behave exactly as on the single-device path.

Simulated billing: a batch is one engine job whose ``sim_bytes`` is the
sum of its members' engine-billed sizes (compressed bytes on the
decompress direction — the C-Engine ingests the compressed stream) and
whose ``soc_sim_bytes`` is the summed uncompressed size (the SoC /
drain-CRC convention).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Generator, Sequence

# ``deflate_compress`` is bound here but never called: the codecs come
# from ``byte_codec``.  benchmarks/perf's harness test probes this name
# to check its tracer's by-name rebinding; drop it when that probe moves.
from repro.algorithms.deflate import deflate_compress  # noqa: F401
from repro.dpu.specs import Algo, Direction
from repro.errors import NoCapableWorkerError, NoLatencySamplesError, WorkerDiedError
from repro.obs import (NULL_SPAN, MetricsRegistry, QuantileSketch, device_span,
                       get_metrics, get_tracer)
from repro.obs.slo import GOODPUT_COUNTER, LATENCY_METRIC
from repro.plan.codecs import CodecConfig, byte_codec
from repro.plan.registry import cengine_core_algo
from repro.sched import EngineJob, PipelineScheduler, SchedConfig
from repro.serve.admission import AdmissionController
from repro.serve.batcher import Batch, BatchEntry, Batcher, BatchPolicy
from repro.serve.request import (
    DEFAULT_TENANT,
    ServeRequest,
    ServeResponse,
    ServeTicket,
)
from repro.serve.router import Router, make_router
from repro.sim.engine import Event

if TYPE_CHECKING:
    from repro.dpu.device import BlueFieldDPU
    from repro.obs import FleetAggregator
    from repro.sim.engine import Environment

__all__ = ["ServeConfig", "TelemetryConfig", "DpuWorker", "ServeGateway"]


@dataclass(frozen=True)
class TelemetryConfig:
    """Fleet-telemetry opt-in for one gateway.

    When set on :class:`ServeConfig`, the gateway builds labeled
    per-worker registries (``gateway``/``worker`` labels; the worker's
    scheduler reports occupancy and steal counters there) plus
    per-(worker, tenant) registries carrying the latency sketch and
    goodput counter the SLO monitor consumes.  All of them register
    with ``aggregator`` when one is given.  Telemetry never touches the
    sim clock: runs are bit-for-bit identical with it on or off.
    """

    gateway: str = "gw0"
    aggregator: "FleetAggregator | None" = None


@dataclass(frozen=True)
class ServeConfig:
    """Gateway policy knobs."""

    batch: BatchPolicy = field(default_factory=BatchPolicy)
    max_pending: int = 64
    router: "str | Router" = "least_queue_depth"
    sched: SchedConfig = field(default_factory=SchedConfig)
    telemetry: TelemetryConfig | None = None
    # Worker-death failover: when on, every in-flight batch races its
    # scheduler completion against the worker's death event and
    # re-dispatches to a surviving replica on loss.  Off by default:
    # the race inserts one extra event per batch into the sim queue,
    # which would perturb the pinned single-gateway bench trajectories.
    failover: bool = False


class DpuWorker:
    """One fleet member: a device plus its pipelined scheduler."""

    __slots__ = ("device", "scheduler", "batches_served", "requests_served",
                 "registry", "alive", "died", "_supported")

    def __init__(self, device: "BlueFieldDPU", sched: SchedConfig,
                 registry: "MetricsRegistry | None" = None) -> None:
        self.device = device
        self.registry = registry
        self.scheduler = PipelineScheduler(device, sched, metrics=registry)
        self.batches_served = 0
        self.requests_served = 0
        # Whole-worker death: routers skip dead workers; failover-enabled
        # batch runners race their completion against ``died``.
        self.alive = True
        self.died = device.env.event()
        # Engine capability per (direction, algo): fixed by the spec.
        self._supported: "dict[tuple[Direction, Algo], bool]" = {}

    def kill(self) -> None:
        """Mark this worker dead and wake every batch racing on it.

        Idempotent: a second kill is a no-op (the death event is
        one-shot, like the real DPU falling off the PCIe bus once).
        """
        if not self.alive:
            return
        self.alive = False
        self.died.succeed(self.name)

    @property
    def name(self) -> str:
        return self.device.name

    @property
    def load(self) -> int:
        """Jobs in flight or queued at this device (router load signal)."""
        return self.scheduler.in_flight + self.scheduler.queued

    def supports(self, direction: Direction, algo: Algo = Algo.DEFLATE) -> bool:
        """True when this device's C-Engine natively runs ``algo`` in
        ``direction`` (via its engine-core mapping; ``ac`` maps to
        itself, which no engine implements, so it is SoC-only)."""
        key = (direction, algo)
        supported = self._supported.get(key)
        if supported is None:
            supported = self._supported[key] = self.device.cengine.supports(
                cengine_core_algo(algo), direction)
        return supported


class ServeGateway:
    """Batching, backpressured front door for a DPU fleet."""

    def __init__(
        self,
        env: "Environment",
        devices: "Sequence[BlueFieldDPU]",
        config: ServeConfig | None = None,
    ) -> None:
        if not devices:
            raise ValueError("ServeGateway needs at least one device")
        for device in devices:
            if device.env is not env:
                raise ValueError(
                    f"device {device.name} lives on a different Environment"
                )
        self.env = env
        self.config = config or ServeConfig()
        # The codec tuning every request runs with; StreamingSession
        # frames with the same.
        self.codecs = CodecConfig()
        # (compress, decompress) per algo, resolved on first use.  Not a
        # memo: every request still runs its codec.
        self._codec_pairs: "dict[Algo, tuple]" = {}
        telemetry = self.config.telemetry
        self.telemetry = telemetry
        self.workers = [
            DpuWorker(
                d,
                self.config.sched,
                registry=self._make_registry(worker=d.name),
            )
            for d in devices
        ]
        router = make_router(self.config.router)
        if router is self.config.router:
            # A shared Router *instance* was passed in (two gateways over
            # one pool must not alias one round-robin cursor or cost
            # cache); name specs already built a fresh instance above.
            router = router.clone()
        self.router = router
        self.admission = AdmissionController(self.config.max_pending)
        self.batcher = Batcher(env, self.config.batch, self._dispatch)
        # Append-only routing trace: (batch_id, kind, worker) per pick.
        # The cluster bench digests this for bit-for-bit gating.
        self.routing_log: "list[tuple[int, str, str]]" = []
        self._inflight: "set[Event]" = set()
        self._auto_id = 0
        self.submitted = 0
        self.completed = 0
        self.completed_sim_bytes = 0.0  # uncompressed bytes served
        self._latencies: list[float] = []
        # Always-on percentile store: deterministic, mergeable, O(1)
        # per observation (the exact list above is kept for tests and
        # error analysis, not for serving percentiles).
        self.latency_sketch = QuantileSketch()
        # Per-(worker, tenant) registries, created on first completion,
        # and the two recorders each completion calls on one.
        self._tenant_registries: "dict[tuple[str, str], MetricsRegistry]" = {}
        self._tenant_recorders: "dict[tuple[str, str], tuple]" = {}

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------

    def _make_registry(self, **labels: str) -> "MetricsRegistry | None":
        """A labeled registry (auto-registered with the aggregator), or
        None when telemetry is off."""
        telemetry = self.telemetry
        if telemetry is None:
            return None
        registry = MetricsRegistry(
            labels={"gateway": telemetry.gateway, **labels}
        )
        if telemetry.aggregator is not None:
            telemetry.aggregator.register(registry)
        return registry

    def _tenant_registry(self, worker: "DpuWorker",
                         tenant: "str | None") -> "MetricsRegistry | None":
        telemetry = self.telemetry
        if telemetry is None:
            return None
        key = (worker.name, tenant or DEFAULT_TENANT)
        registry = self._tenant_registries.get(key)
        if registry is None:
            registry = self._make_registry(worker=key[0], tenant=key[1])
            self._tenant_registries[key] = registry
        return registry

    @property
    def registries(self) -> "tuple[MetricsRegistry, ...]":
        """Every labeled registry this gateway owns (telemetry on)."""
        members = [w.registry for w in self.workers if w.registry is not None]
        members.extend(self._tenant_registries.values())
        return tuple(members)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def submit(self, request: ServeRequest) -> ServeTicket:
        """Offer one request; returns its ticket (``.shed`` if refused).

        The real codec work happens here, before admission-shed
        requests are turned away — shed requests cost nothing, and
        admitted requests' output bytes are pinned down before the
        simulation schedules anything.
        """
        self.submitted += 1
        metrics = get_metrics()
        if metrics.recording:
            metrics.inc("serve.requests")
        if not self.admission.try_admit():
            return ServeTicket(request, None)
        if request.req_id is None:
            request = dataclasses.replace(request, req_id=self._auto_id)
            self._auto_id += 1
        entry = self._make_entry(request)
        self._inflight.add(entry.event)
        self.batcher.add(entry)
        return ServeTicket(request, entry.event)

    def drain(self) -> Generator:
        """Flush partial batches and wait out every admitted request —
        completed *or* failed.  A failing request (worker died with no
        replica, engine exhausted) fails the in-flight barrier; the
        drain absorbs it and keeps waiting on the survivors rather than
        surfacing one request's error to whoever is draining."""
        self.batcher.flush_all()
        while self._inflight:
            try:
                yield self.env.all_of(list(self._inflight))
            except BaseException:
                continue

    def kill_worker(self, name: str) -> DpuWorker:
        """Kill the named worker (fault injection / cluster failover).

        Routers stop picking it immediately.  With ``failover`` enabled
        in :class:`ServeConfig`, batches in flight on it lose their
        death race (:class:`~repro.errors.WorkerDiedError` internally)
        and re-dispatch to a surviving replica — or fail their tickets
        with :class:`~repro.errors.NoCapableWorkerError` when none is
        left.  Without ``failover`` the kill only stops *new*
        placements: in-flight batches run to completion against the
        cost model (their bytes were pinned at submit).  Either way
        every admitted request releases its admission slot exactly
        once.
        """
        for worker in self.workers:
            if worker.name == name:
                worker.kill()
                get_metrics().inc("serve.worker_kills")
                return worker
        raise ValueError(f"no worker named {name!r} in this gateway")

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    @property
    def latencies(self) -> "tuple[float, ...]":
        return tuple(self._latencies)

    @property
    def sample_count(self) -> int:
        """Completed-request latency observations backing the
        percentiles.  Zero means "no samples yet" — consumers (e.g.
        the bench rows) must report that state explicitly instead of
        a ``nan`` that is indistinguishable from a 0.0 latency."""
        return self.latency_sketch.count

    def latency_percentile(self, q: float) -> float:
        """Sketch-backed percentile (``q`` in [0, 100]) of completed
        request latencies, within the sketch's relative-error bound
        (:data:`~repro.obs.sketch.DEFAULT_ALPHA`, 1 %) of the exact
        nearest-rank value.

        Raises :class:`~repro.errors.NoLatencySamplesError` (a
        :class:`ValueError` subclass) when no request has completed
        yet — e.g. at very low offered load before the first drain;
        check :attr:`sample_count` to branch without catching.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        if self.latency_sketch.count == 0:
            raise NoLatencySamplesError("no completed requests yet")
        return self.latency_sketch.quantile(q / 100.0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _make_entry(self, request: ServeRequest) -> BatchEntry:
        """Run the real codec and fix the two-domain billing sizes."""
        codec = self._codec_pairs.get(request.algo)
        if codec is None:
            codec = byte_codec(request.algo, self.codecs)
            if codec is None:
                raise ValueError(
                    f"gateway cannot serve algo {request.algo.value!r} "
                    "(lossless byte codecs only: deflate, lz4, ac)"
                )
            self._codec_pairs[request.algo] = codec
        compress, decompress = codec
        if request.direction is Direction.COMPRESS:
            output = compress(request.payload)
            sim_in = float(
                len(request.payload) if request.sim_bytes is None
                else request.sim_bytes
            )
            engine_sim = soc_sim = sim_in
        else:
            output = decompress(request.payload)
            sim_out = float(
                len(output) if request.sim_bytes is None else request.sim_bytes
            )
            # The engine ingests the compressed stream on decompress;
            # scale its actual size into the simulated domain.
            scale = sim_out / len(output) if output else 1.0
            engine_sim = len(request.payload) * scale
            soc_sim = sim_out
        env = self.env
        return BatchEntry(request, output, engine_sim, soc_sim, env.now,
                          Event(env))

    def _dispatch(self, batch: Batch) -> None:
        """Batcher flush callback: route and launch the batch.

        A routing dead-end (every capable worker dead — possible when a
        deadline timer flushes after a kill) must not escape into the
        batcher's deadline timer callback: it would stop the run, strand
        the open batch AND leak its admission slots.  Fail the batch's
        tickets here instead.
        """
        try:
            worker = self.router.pick(self.workers, batch)
        except NoCapableWorkerError as exc:
            self._fail_batch(batch, exc)
            return
        self.routing_log.append((batch.batch_id, "dispatch", worker.name))
        self.env.process(
            self._run_batch(worker, batch),
            name=f"serve:batch:{batch.batch_id}",
        )

    def _fail_batch(self, batch: Batch, exc: BaseException) -> None:
        """Fail every ticket in ``batch``, releasing each admission slot
        exactly once (the leak this guards against: a batch that failed
        *after* admission kept its slots forever)."""
        for entry in batch.entries:
            self.admission.complete()
            self._inflight.discard(entry.event)
            if not entry.event.triggered:
                entry.event.fail(exc)

    def _run_batch(self, worker: DpuWorker, batch: Batch) -> Generator:
        job = EngineJob(
            batch.algo,
            batch.direction,
            batch.engine_sim_bytes,
            payload=batch.payload,
            tag=batch.batch_id,
            soc_sim_bytes=batch.soc_sim_bytes,
        )
        metrics = get_metrics()
        span_index: "int | None" = None
        try:
            while True:
                try:
                    span = NULL_SPAN
                    if get_tracer().recording:
                        span = device_span(
                            "serve.batch",
                            worker.device,
                            batch=batch.batch_id,
                            direction=batch.direction.value,
                            msgs=batch.size,
                            sim_bytes=batch.engine_sim_bytes,
                        )
                    with span:
                        if span.recording:
                            span_index = span.index
                        completion = worker.scheduler.submit(job).event
                        if not self.config.failover:
                            outcome = yield completion
                        else:
                            # Race the job against whole-worker death.  A
                            # losing completion that fires later is ignored
                            # (the orphan job finishes against a dead
                            # device; its bytes were fixed at submit).
                            winner, value = yield self.env.any_of(
                                [completion, worker.died]
                            )
                            if winner is not completion:
                                raise WorkerDiedError(worker.name)
                            outcome = value
                    break
                except WorkerDiedError:
                    # Re-dispatch to a surviving replica; raises
                    # NoCapableWorkerError into the outer handler when
                    # nobody is left.
                    if metrics.recording:
                        metrics.inc("serve.failovers")
                    worker = self.router.pick(self.workers, batch)
                    self.routing_log.append(
                        (batch.batch_id, "failover", worker.name)
                    )
        except BaseException as exc:
            # Without SoC fallback an exhausted engine job surfaces its
            # DOCA error here; fan it out so no ticket waits forever.
            self._fail_batch(batch, exc)
            return
        self._complete_batch(worker, batch, outcome.engine, span_index)

    def _complete_batch(self, worker: DpuWorker, batch: Batch, engine: str,
                        span_index: "int | None") -> None:
        """Answer every entry of a drained batch, in entry order."""
        now = self.env.now
        size = batch.size
        worker.batches_served += 1
        worker.requests_served += size
        name = worker.name
        direction = batch.direction
        batch_id = batch.batch_id
        metrics = get_metrics()
        recording = metrics.recording
        note_latency = self._latencies.append
        sketch_add = self.latency_sketch.add
        release = self.admission.complete
        discard = self._inflight.discard
        telemetry = self.telemetry is not None
        recorders = self._tenant_recorders
        for entry in batch.entries:
            request = entry.request
            accepted_s = entry.accepted_s
            response = ServeResponse(
                request.req_id, direction, entry.output, name, engine,
                accepted_s, now, batch_id, size,
            )
            latency = now - accepted_s  # == response.latency_s
            self.completed += 1
            self.completed_sim_bytes += entry.soc_sim_bytes
            note_latency(latency)
            sketch_add(latency, span_index)
            if recording:
                metrics.observe("serve.latency_s", latency)
            if telemetry:
                key = (name, request.tenant or DEFAULT_TENANT)
                pair = recorders.get(key)
                if pair is None:
                    pair = self._tenant_recorders_for(worker, key)
                observe, add_goodput = pair
                observe(latency, span_index)
                add_goodput(entry.soc_sim_bytes)
            release()
            discard(entry.event)
            entry.event.succeed(response)

    def _tenant_recorders_for(self, worker: DpuWorker,
                              key: "tuple[str, str]") -> tuple:
        """``(observe latency, add goodput)`` bound to one
        per-(worker, tenant) registry's two instruments."""
        registry = self._tenant_registry(worker, key[1])
        pair = (registry.histogram(LATENCY_METRIC).observe,
                registry.counter(GOODPUT_COUNTER).inc)
        self._tenant_recorders[key] = pair
        return pair
