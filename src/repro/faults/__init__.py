"""``repro.faults`` — deterministic fault injection for the DOCA path.

Two composable halves:

* **plans** (:mod:`repro.faults.plan`): seeded, sim-clock-deterministic
  decisions about which hardware operations misbehave — engine job
  failures, stalls/timeouts, degraded throughput, output corruption,
  and session-init failures.  Installed process-wide like the obs
  tracer/metrics (:func:`set_fault_plan` / :func:`injecting`), no-op by
  default.
* **policy** (:mod:`repro.faults.policy`): the caller-side response —
  the attempt budget and sim-clock exponential backoff
  (``MAX_ATTEMPTS``, ``BACKOFF_BASE_S``, ``BACKOFF_MULTIPLIER``) and the
  shared retry driver that escalates a persistently failing
  C-Engine job to the SoC pipeline, mirroring the registry's capability
  fallback at run time.

Typical use::

    from repro import faults

    with faults.injecting(seed=42, engine_fail=0.3):
        ...run simulation...   # retries/fallbacks counted in repro.obs

or, from the bench CLI::

    python -m repro.bench fig7 --faults seed=42,engine_fail=1.0 --metrics m.json
"""

from repro.faults.corrupt import corrupt_buffer, flip_bits, truncate
from repro.faults.plan import (
    NO_FAULT,
    NULL_PLAN,
    FaultConfig,
    FaultDecision,
    FaultPlan,
    NullFaultPlan,
    get_fault_plan,
    injecting,
    parse_fault_spec,
    set_fault_plan,
)
from repro.faults.policy import (
    PHASE_RETRY,
    EngineFallback,
    engine_job_with_retry,
)
from repro.faults.workers import (
    WorkerKill,
    WorkerKillSchedule,
    worker_kill_process,
)

__all__ = [
    # plan
    "FaultConfig",
    "FaultDecision",
    "FaultPlan",
    "NullFaultPlan",
    "NO_FAULT",
    "NULL_PLAN",
    "get_fault_plan",
    "set_fault_plan",
    "injecting",
    "parse_fault_spec",
    # policy
    "EngineFallback",
    "engine_job_with_retry",
    "PHASE_RETRY",
    # corruption
    "corrupt_buffer",
    "flip_bits",
    "truncate",
    # whole-worker kills
    "WorkerKill",
    "WorkerKillSchedule",
    "worker_kill_process",
]
