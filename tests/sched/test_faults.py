"""Fault-injection interplay: slot release, retry re-entry, work-steal."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.parallel import ParallelCompressor, ParallelConfig
from repro.dpu import make_device
from repro.errors import DocaTransientError
from repro.faults import FaultPlan, policy, set_fault_plan
from repro.sched import PipelineScheduler, SchedConfig
from repro.sim import Environment

_NOMINAL = 48.85e6


def _run(jobs, config, plan=None, device_kind="bf2"):
    prev = set_fault_plan(plan) if plan is not None else None
    try:
        env = Environment()
        device = make_device(env, device_kind)
        sched = PipelineScheduler(device, config)
        proc = env.process(sched.submit_many(jobs))
        outcomes = env.run(until=proc)
    finally:
        if plan is not None:
            set_fault_plan(prev)
    return env.now, sched, outcomes


class TestRetryBudget:
    def test_persistent_failure_steals_to_soc(self, make_jobs):
        _, sched, outcomes = _run(
            make_jobs(4), SchedConfig(depth=2),
            plan=FaultPlan(seed=3, engine_fail=1.0),
        )
        assert [o.engine for o in outcomes] == ["soc"] * 4
        assert all(o.attempts == 3 for o in outcomes)
        assert sched.jobs_stolen == 4

    def test_persistent_failure_raises_without_fallback(self, make_jobs):
        with pytest.raises(DocaTransientError):
            _run(
                make_jobs(2), SchedConfig(depth=2, soc_fallback=False),
                plan=FaultPlan(seed=3, engine_fail=1.0),
            )

    def test_stall_mid_pipeline_releases_slot_and_retries(self, make_jobs):
        # A stall surfaces as DocaTimeoutError: the job's slot frees,
        # the stall time is charged to its exec stage, and the retry
        # re-enters the pipeline until the budget exhausts.
        clean_t, _, _ = _run(make_jobs(4, sim_bytes=6e6), SchedConfig(depth=2))
        stall_t, sched, outcomes = _run(
            make_jobs(4, sim_bytes=6e6), SchedConfig(depth=2),
            plan=FaultPlan(seed=5, engine_stall=1.0, stall_factor=8.0),
        )
        assert all(o.attempts == 3 for o in outcomes)
        assert sched.jobs_stolen == 4
        assert all(o.exec_seconds > 0 for o in outcomes)
        assert stall_t > clean_t

    def test_retry_metrics_recorded(self, make_jobs):
        metrics = obs.MetricsRegistry()
        prev = obs.set_metrics(metrics)
        try:
            _run(
                make_jobs(3), SchedConfig(depth=2),
                plan=FaultPlan(seed=3, engine_fail=1.0),
            )
        finally:
            obs.set_metrics(prev)
        # 3 jobs x 3 failed attempts each.
        assert metrics.counter("sched.retries").value == 9
        assert metrics.counter("sched.soc_steals").value == 3


class TestSlotRelease:
    def test_backoff_does_not_hold_the_slot(self, make_jobs, monkeypatch):
        """With depth 1 and a long backoff, two always-failing jobs must
        interleave their backoff waits: if a failed job kept its slot
        while backing off, the makespan would be ~2 backoff chains."""
        monkeypatch.setattr(policy, "BACKOFF_BASE_S", 0.01)
        chain = 0.01 * (1 + 2)  # base * (2^0 + 2^1) per job
        t, _, outcomes = _run(
            make_jobs(2, sim_bytes=1e5), SchedConfig(depth=1),
            plan=FaultPlan(seed=3, engine_fail=1.0),
        )
        assert all(o.engine == "soc" for o in outcomes)
        # Interleaved: one chain plus execution slack, far below two.
        assert t < 2 * chain
        assert t >= chain

    def test_queue_drains_while_one_job_backs_off(self, make_jobs):
        """Mixed failure run at depth 1: nothing deadlocks, every job
        completes, order is preserved."""
        _, _, outcomes = _run(
            make_jobs(8), SchedConfig(depth=1),
            plan=FaultPlan(seed=7, engine_fail=0.4, corrupt_output=0.2),
        )
        assert [o.index for o in outcomes] == list(range(8))
        assert all(o.engine in ("cengine", "soc") for o in outcomes)


class TestCorruptionAtDrain:
    def test_corruption_forces_reexecution(self, make_jobs):
        metrics = obs.MetricsRegistry()
        prev = obs.set_metrics(metrics)
        try:
            _, _, outcomes = _run(
                make_jobs(4), SchedConfig(depth=2),
                plan=FaultPlan(seed=11, corrupt_output=1.0),
            )
        finally:
            obs.set_metrics(prev)
        # Every drain detects the flip; jobs exhaust retries and steal.
        assert metrics.counter("faults.corruptions_detected").value > 0
        assert all(o.engine == "soc" for o in outcomes)
        # Payloads are never the corrupted bytes — they pass through.
        assert [o.payload for o in outcomes] == [
            bytes([i % 251]) * 64 for i in range(4)
        ]


class TestChunkOrderUnderFaults:
    def test_ppar_container_identical_with_and_without_faults(
        self, text_payload
    ):
        def compress(plan):
            prev = set_fault_plan(plan) if plan is not None else None
            try:
                env = Environment()
                device = make_device(env, "bf2")
                pc = ParallelCompressor(
                    device, ParallelConfig(n_chunks=8, pipeline_depth=2)
                )
                proc = env.process(pc.compress(text_payload, _NOMINAL))
                return env.run(until=proc)
            finally:
                if plan is not None:
                    set_fault_plan(prev)

        clean = compress(None)
        faulty = compress(
            FaultPlan(seed=7, engine_fail=0.4, corrupt_output=0.3)
        )
        # Retries re-enter the pipeline out of band, but the parallel
        # container keeps its chunks in submission order: byte-identical.
        assert faulty.payload == clean.payload

    def test_roundtrip_under_faults(self, text_payload):
        plan = FaultPlan(seed=13, engine_fail=0.3, corrupt_output=0.2)
        prev = set_fault_plan(plan)
        try:
            env = Environment()
            device = make_device(env, "bf2")
            pc = ParallelCompressor(
                device, ParallelConfig(n_chunks=8, pipeline_depth=3)
            )
            proc = env.process(pc.compress(text_payload, _NOMINAL))
            container = env.run(until=proc).payload

            env2 = Environment()
            pc2 = ParallelCompressor(
                make_device(env2, "bf2"),
                ParallelConfig(n_chunks=8, pipeline_depth=3),
            )
            proc2 = env2.process(pc2.decompress(container, _NOMINAL))
            restored = env2.run(until=proc2).payload
        finally:
            set_fault_plan(prev)
        assert restored == text_payload
