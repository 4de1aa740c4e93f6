"""Deadlock/starvation stress: extreme depths and big batches."""

from __future__ import annotations

import pytest

from repro.dpu import make_device
from repro.dpu.specs import Direction
from repro.sched import PipelineScheduler, SchedConfig
from repro.sim import Environment


def _run(jobs, config, device_kind="bf2"):
    env = Environment()
    device = make_device(env, device_kind)
    sched = PipelineScheduler(device, config)
    proc = env.process(sched.submit_many(jobs))
    outcomes = env.run(until=proc)
    return env.now, outcomes


class TestExtremeDepths:
    def test_depth_one_completes(self, make_jobs):
        _, outcomes = _run(make_jobs(8), SchedConfig(depth=1))
        assert len(outcomes) == 8
        assert all(o.engine == "cengine" for o in outcomes)

    def test_depth_far_exceeding_jobs(self, make_jobs):
        # depth >> chunks: admission never blocks, the engine's single
        # server is the only serialisation point, and nothing deadlocks.
        _, outcomes = _run(make_jobs(4), SchedConfig(depth=64))
        assert len(outcomes) == 4

    def test_depth_grid_monotone_makespan(self, make_jobs):
        jobs = make_jobs(16, sim_bytes=6e6)
        times = [_run(jobs, SchedConfig(depth=d))[0] for d in (1, 2, 4, 16)]
        # Deeper queues never hurt the makespan...
        assert all(b <= a + 1e-12 for a, b in zip(times, times[1:]))
        # ...and depth 2 strictly beats serial.
        assert times[1] < times[0]

    def test_deep_queue_saturates_at_engine_rate(self, make_jobs):
        # Past depth 2 the single-server exec stage is the bottleneck:
        # going deeper buys (almost) nothing.
        jobs = make_jobs(16, sim_bytes=6e6)
        t2 = _run(jobs, SchedConfig(depth=2))[0]
        t16 = _run(jobs, SchedConfig(depth=16))[0]
        assert t16 == pytest.approx(t2, rel=0.05)


class TestMixedSizes:
    def test_growing_jobs_regrow_ring_slots(self, make_jobs):
        # Increasing sizes force ring_grow re-registrations; order and
        # payloads survive.
        from repro.dpu.specs import Algo
        from repro.sched import EngineJob

        jobs = [
            EngineJob(Algo.DEFLATE, Direction.COMPRESS, 1e5 * (i + 1),
                      payload=bytes([i]) * 32, tag=i)
            for i in range(10)
        ]
        _, outcomes = _run(jobs, SchedConfig(depth=2))
        assert [o.tag for o in outcomes] == list(range(10))
        assert [o.payload for o in outcomes] == [j.payload for j in jobs]

    def test_large_batch(self, make_jobs):
        _, outcomes = _run(make_jobs(64), SchedConfig(depth=3))
        assert len(outcomes) == 64
        assert [o.index for o in outcomes] == list(range(64))
