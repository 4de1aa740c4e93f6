"""Retry and SoC-fallback policy for C-Engine jobs.

The registry's *capability* fallback (paper §III-D) redirects designs
the hardware can never run; this module adds the *runtime* mirror of
that decision: a job the hardware should run but keeps failing is
retried under an exponential sim-clock backoff and, once the attempt
budget is exhausted, escalated to the SoC pipeline by the caller.  The
budget and the backoff are the module constants :data:`MAX_ATTEMPTS`,
:data:`BACKOFF_BASE_S` and :data:`BACKOFF_MULTIPLIER`, read at call
time.

:func:`engine_job_with_retry` drives one engine job and
:func:`init_with_retry` one DOCA bring-up; both raise
:class:`EngineFallback` when the engine must be given up on.  For
PEDAL and naive ops alike the charge-plan executor
(:func:`repro.plan.charges.execute`) catches it and runs the stage's
SoC fallback plan, which is exactly what makes fault runs
byte-identical to fault-free runs (the real codec bytes never depend
on which engine the simulation charged).

Every retry, detected corruption, and backoff is counted in
:mod:`repro.obs` metrics (``faults.retries``,
``faults.corruptions_detected``, ``faults.attempts`` histogram) and the
backoff waits appear as ``fault.backoff`` spans on the device track.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator

from repro.errors import DocaInitError, DocaTransientError
from repro.faults.plan import get_fault_plan
from repro.obs import device_span, get_metrics
from repro.obs.metrics import RETRY_ATTEMPT_BUCKETS
from repro.util.checksums import crc32

if TYPE_CHECKING:
    from repro.dpu.device import BlueFieldDPU
    from repro.dpu.specs import Algo, Direction
    from repro.sim import TimeBreakdown

__all__ = ["MAX_ATTEMPTS", "BACKOFF_BASE_S", "BACKOFF_MULTIPLIER",
           "EngineFallback", "engine_job_with_retry", "init_with_retry",
           "backoff_wait", "PHASE_RETRY"]

# Breakdown phase for retry backoff waits and corruption re-verification.
PHASE_RETRY = "fault_retry"

#: Total engine attempts (or DOCA bring-ups) before the SoC fallback.
MAX_ATTEMPTS = 3
#: Sim seconds of backoff before the second attempt ...
BACKOFF_BASE_S = 2e-5
#: ... multiplied by this before each later one.
BACKOFF_MULTIPLIER = 2.0


class EngineFallback(Exception):
    """Control-flow signal: give up on the C-Engine, use the SoC.

    Deliberately *not* a :class:`~repro.errors.ReproError`: it must
    never escape the policy layer's callers, who translate it into the
    SoC pipeline.
    """

    def __init__(self, reason: str, attempts: int) -> None:
        super().__init__(f"C-Engine given up after {attempts} attempts: {reason}")
        self.reason = reason
        self.attempts = attempts


def engine_job_with_retry(
    device: "BlueFieldDPU",
    algo: "Algo",
    direction: "Direction",
    sim_bytes: float,
    breakdown: "TimeBreakdown",
    phase: str,
    verify_seconds: float,
    payload: "bytes | None" = None,
) -> Generator:
    """Run one C-Engine job under the retry budget; returns the
    (possibly re-verified) ``payload``.

    Engine execution time — including time burned by failed attempts —
    is charged to ``phase``; backoff waits and corruption verification
    (``verify_seconds`` on an SoC core, priced by the caller's charge
    plan) go to :data:`PHASE_RETRY`.  When ``payload`` is given, the
    active fault plan may corrupt it; the corruption is detected by
    CRC-32 comparison against the engine's job completion record (the
    "existing checksum layer" of the wire formats stands in for the
    DOCA output CRC here) and treated as one more transient failure.
    Raises :class:`EngineFallback` once :data:`MAX_ATTEMPTS` engine
    attempts have failed.
    """
    env = device.env
    plan = get_fault_plan()
    metrics = get_metrics()
    failed = 0
    while True:
        try:
            seconds = yield from device.cengine.submit(algo, direction, sim_bytes)
        except DocaTransientError as exc:
            failed += 1
            if exc.sim_seconds > 0:
                breakdown.add(phase, exc.sim_seconds)
            if metrics.recording:
                metrics.inc("faults.retries")
                metrics.observe("faults.attempts", float(failed),
                                RETRY_ATTEMPT_BUCKETS)
            if failed >= MAX_ATTEMPTS:
                raise EngineFallback(str(exc), failed) from exc
            yield from backoff_wait(device, failed, breakdown)
            continue
        breakdown.add(phase, seconds)
        if payload is None or not plan.active:
            return payload
        damaged, corrupted = plan.corrupt_engine_output(
            f"{device.name}.{algo.value}.{direction.value}", payload, env.now
        )
        if not corrupted:
            return payload
        # The engine DMA'd a damaged buffer: verify against the job's
        # completion checksum on SoC cores, then resubmit.
        with device_span("fault.verify", device, device=device.name,
                         algo=algo.value, direction=direction.value):
            yield from device.soc.run(verify_seconds)
        breakdown.add(PHASE_RETRY, verify_seconds)
        if crc32(damaged) == crc32(payload):  # pragma: no cover - collision
            return damaged
        failed += 1
        if metrics.recording:
            metrics.inc("faults.corruptions_detected")
            metrics.inc("faults.retries")
            metrics.observe("faults.attempts", float(failed),
                            RETRY_ATTEMPT_BUCKETS)
        if failed >= MAX_ATTEMPTS:
            raise EngineFallback("output corruption persisted", failed)
        yield from backoff_wait(device, failed, breakdown)


def init_with_retry(
    device: "BlueFieldDPU",
    breakdown: "TimeBreakdown",
    phase: str,
    bring_up: "Callable[[], Generator]",
) -> Generator:
    """Bring DOCA up under the retry budget — hoisted (``PEDAL_init``)
    or per op.

    ``bring_up()`` is one attempt: a generator that returns its sim
    seconds or raises :class:`~repro.errors.DocaInitError` carrying
    them.  Every attempt, failed ones included, is charged to
    ``phase``.  Raises :class:`EngineFallback` once
    :data:`MAX_ATTEMPTS` attempts have failed.
    """
    metrics = get_metrics()
    failed = 0
    while True:
        try:
            seconds = yield from bring_up()
        except DocaInitError as exc:
            failed += 1
            breakdown.add(phase, exc.sim_seconds)
            if metrics.recording:
                metrics.inc("faults.retries")
            if failed >= MAX_ATTEMPTS:
                if metrics.recording:
                    metrics.inc("faults.init_giveups")
                raise EngineFallback(str(exc), failed) from exc
            yield from backoff_wait(device, failed, breakdown)
        else:
            breakdown.add(phase, seconds)
            return


def backoff_wait(device: "BlueFieldDPU", failed: int,
                 breakdown: "TimeBreakdown") -> Generator:
    """Sleep the backoff after ``failed`` failed attempts on the sim clock."""
    wait = BACKOFF_BASE_S * BACKOFF_MULTIPLIER ** (failed - 1)
    if wait <= 0:
        return
    with device_span("fault.backoff", device, device=device.name,
                     attempt=failed, wait_s=wait):
        yield device.env.timeout(wait)
    breakdown.add(PHASE_RETRY, wait)
