"""C-Engine: the BlueField hardware compression accelerator.

A single-server FIFO device (jobs submitted through DOCA work queues
execute one at a time), with the capability matrix of the owning device
generation (paper Table II).  Unsupported (algo, direction) submissions
raise :class:`~repro.errors.DocaCapabilityError` — PEDAL's registry
catches this class of condition *before* submission and falls back to
the SoC (paper §III-D), but direct DOCA users hit the error.

Each executed job emits a ``cengine.compress`` / ``cengine.decompress``
tracing span and feeds the job counter plus queue-wait histogram when
observability is enabled (see :mod:`repro.obs`).

When a fault plan is installed (:mod:`repro.faults`), job execution
consults it: a job may fail with a DOCA error code after burning part
of its nominal time, stall — holding the engine ``stall_factor`` times
longer before surfacing a timeout — or run degraded.  All of it is
deterministic per (plan seed, device, algo, direction, sim time); with
no plan (or zero probabilities) this path adds no simulation events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.dpu.calibration import Calibration
from repro.dpu.specs import Algo, Direction, DpuSpec
from repro.errors import DocaCapabilityError, DocaJobError, DocaTimeoutError
from repro.faults.plan import KIND_DEGRADE, KIND_FAIL, KIND_STALL, get_fault_plan
from repro.obs import NULL_SPAN, device_span, get_metrics, get_tracer
from repro.obs.metrics import SIM_SECONDS_BUCKETS
from repro.sim import Environment, Resource

if TYPE_CHECKING:
    from repro.dpu.device import BlueFieldDPU

__all__ = ["CEngine"]


class CEngine:
    """The hardware compression engine of one DPU."""

    def __init__(self, env: Environment, spec: DpuSpec, cal: Calibration) -> None:
        self.env = env
        self.spec = spec
        self.cal = cal
        self.queue = Resource(env, capacity=1, obs_name="cengine")
        self.jobs_completed = 0
        self.busy_seconds = 0.0
        # Back-reference set by the owning BlueFieldDPU so job spans land
        # on the device's trace track (nested under PEDAL op spans).
        self.owner: "BlueFieldDPU | None" = None

    @property
    def name(self) -> str:
        """Track label when the engine is used without an owning device."""
        return f"{self.spec.name} C-Engine"

    def supports(self, algo: Algo, direction: Direction) -> bool:
        """Native DOCA support for (algo, direction) on this device."""
        return self.spec.cengine_supports(algo, direction)

    def job_time(self, algo: Algo, direction: Direction, nbytes: int) -> float:
        """Execution time of one job (submission overhead + transfer)."""
        if not self.supports(algo, direction):
            raise DocaCapabilityError(
                f"{self.spec.name} C-Engine does not support "
                f"{algo.value} {direction.value}"
            )
        return self.cal.cengine_time(algo, direction, nbytes)

    def submit(
        self, algo: Algo, direction: Direction, nbytes: int
    ) -> Generator:
        """Queue and execute one job; returns the job duration.

        The duration returned excludes queueing delay (callers measure
        wall time from the environment clock if they need it).  Under an
        installed fault plan a job may instead raise
        :class:`~repro.errors.DocaJobError` (engine error code) or
        :class:`~repro.errors.DocaTimeoutError` (stall) — both carry the
        sim seconds the engine was held so retry layers can account for
        the wasted time.
        """
        seconds = self.job_time(algo, direction, nbytes)  # may raise
        span = NULL_SPAN
        if get_tracer().recording:
            span = device_span(
                f"cengine.{direction.value}",
                self.owner if self.owner is not None else self,
                algo=algo.value,
                bytes=nbytes,
                device=self.spec.name,
            )
        with span:
            req = self.queue.request()
            yield req
            wait = self.env.now - req.requested_at
            metrics = get_metrics()
            if metrics.recording:
                metrics.inc("cengine.jobs")
                metrics.inc(f"cengine.bytes.{direction.value}", float(nbytes))
                metrics.observe("cengine.queue_wait_s", wait, SIM_SECONDS_BUCKETS)
            if wait > 0:
                span.set_attr("queue_wait_s", wait)
            plan = get_fault_plan()
            decision = (
                plan.engine_job(self.spec.name, algo.value, direction.value,
                                self.env.now)
                if plan.active
                else None
            )
            try:
                if decision is not None and decision.is_fault:
                    span.set_attr("fault", decision.kind)
                    if decision.kind == KIND_FAIL:
                        held = seconds * plan.config.fail_latency_fraction
                        yield self.env.timeout(held)
                        self.busy_seconds += held
                        raise DocaJobError(
                            f"{self.spec.name} C-Engine job failed",
                            code=decision.code, sim_seconds=held,
                        )
                    if decision.kind == KIND_STALL:
                        held = seconds * decision.factor
                        yield self.env.timeout(held)
                        self.busy_seconds += held
                        raise DocaTimeoutError(
                            f"{self.spec.name} C-Engine job stalled "
                            f"({decision.factor:g}x past nominal)",
                            sim_seconds=held,
                        )
                    assert decision.kind == KIND_DEGRADE
                    seconds *= decision.factor
                yield self.env.timeout(seconds)
                self.jobs_completed += 1
                self.busy_seconds += seconds
            finally:
                self.queue.release(req)
        return seconds
