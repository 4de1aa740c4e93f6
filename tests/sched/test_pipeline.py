"""Core behavior of the bounded-depth pipelined work queue."""

from __future__ import annotations

import pytest

from repro import obs
from repro.dpu.specs import Algo, Direction
from repro.errors import DocaCapabilityError
from repro.sched import EngineJob, PipelineScheduler, SchedConfig


def run_many(device, jobs, config=None):
    sched = PipelineScheduler(device, config)
    env = device.env
    proc = env.process(sched.submit_many(jobs))
    return sched, env.run(until=proc)


class TestSubmission:
    def test_outcomes_in_submission_order(self, bf2, make_jobs):
        jobs = make_jobs(6)
        _, outcomes = run_many(bf2, jobs, SchedConfig(depth=3))
        assert [o.index for o in outcomes] == list(range(6))
        assert [o.tag for o in outcomes] == [j.tag for j in jobs]
        assert [o.payload for o in outcomes] == [j.payload for j in jobs]

    def test_empty_batch(self, bf2, run_sim):
        sched = PipelineScheduler(bf2)
        assert run_sim(bf2.env, sched.submit_many([])) == []

    def test_single_ticket_wait(self, bf2, make_jobs, run_sim):
        sched = PipelineScheduler(bf2)
        ticket = sched.submit(make_jobs(1)[0])
        assert not ticket.done
        outcome = run_sim(bf2.env, ticket.wait())
        assert ticket.done
        assert outcome.engine == "cengine"
        assert outcome.attempts == 1
        assert outcome.seconds > 0

    def test_counters(self, bf2, make_jobs):
        sched, _ = run_many(bf2, make_jobs(5))
        assert sched.jobs_completed == 5
        assert sched.jobs_stolen == 0
        assert sched.in_flight == 0
        assert sched.queued == 0


class TestValidation:
    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            SchedConfig(depth=0)

    def test_default_ring_is_depth_plus_one(self):
        assert SchedConfig(depth=3).ring_size == 4

    def test_negative_job_size_rejected(self):
        with pytest.raises(ValueError):
            EngineJob(Algo.DEFLATE, Direction.COMPRESS, -1.0)


class TestCapability:
    def test_reject_raises_up_front_without_fallback(self, bf3, make_jobs):
        # BF3's engine is decompress-only (Table III).
        sched = PipelineScheduler(bf3, SchedConfig(soc_fallback=False))
        with pytest.raises(DocaCapabilityError):
            sched.submit(make_jobs(1)[0])

    def test_reject_steals_to_soc_with_fallback(self, bf3, make_jobs):
        jobs = make_jobs(3)
        tracer = obs.Tracer()
        prev = obs.set_tracer(tracer)
        try:
            sched, outcomes = run_many(bf3, jobs, SchedConfig(depth=2))
        finally:
            obs.set_tracer(prev)
        assert [o.engine for o in outcomes] == ["soc"] * 3
        assert all(o.attempts == 0 for o in outcomes)
        assert sched.jobs_stolen == 3
        # A stolen job keeps its bytes and tag, and its span says why.
        assert [(o.payload, o.tag) for o in outcomes] == [
            (j.payload, j.tag) for j in jobs]
        assert {s.attrs["steal_reason"]
                for s in tracer.find("sched.exec")} == {"capability"}

    def test_supported_direction_uses_engine(self, bf3, make_jobs):
        jobs = make_jobs(3, direction=Direction.DECOMPRESS)
        _, outcomes = run_many(bf3, jobs)
        assert [o.engine for o in outcomes] == ["cengine"] * 3


class TestPipelining:
    def test_depth_two_beats_serial(self, make_jobs):
        jobs = make_jobs(8, sim_bytes=6e6)
        serial, _ = _timed_fresh(jobs, SchedConfig(depth=1))
        piped, _ = _timed_fresh(jobs, SchedConfig(depth=2))
        assert piped < serial

    def test_occupancy_bounded_by_depth(self, bf2, make_jobs):
        metrics = obs.MetricsRegistry()
        prev = obs.set_metrics(metrics)
        try:
            run_many(bf2, make_jobs(8, sim_bytes=6e6), SchedConfig(depth=2))
        finally:
            obs.set_metrics(prev)
        gauge = metrics.gauge("sched.occupancy")
        assert gauge.max == 2.0
        assert gauge.min == 0.0

    def test_ring_reuse_after_warmup(self, bf2, make_jobs):
        tracer = obs.Tracer()
        prev = obs.set_tracer(tracer)
        try:
            run_many(bf2, make_jobs(8, sim_bytes=6e6), SchedConfig(depth=2))
        finally:
            obs.set_tracer(prev)
        sources = [
            s.attrs.get("source") for s in tracer.spans if s.name == "sched.map"
        ]
        # The ring maps lazily: at depth 2 only two buffers are ever
        # needed concurrently, so two cold maps and the rest reuse.
        assert sources.count("ring_map") == 2
        assert sources.count("ring_reuse") == 6


def _timed(device, jobs, config):
    sched = PipelineScheduler(device, config)
    env = device.env
    start = env.now
    proc = env.process(sched.submit_many(jobs))
    outcomes = env.run(until=proc)
    return env.now - start, outcomes


def _timed_fresh(jobs, config):
    from repro.dpu import make_device
    from repro.sim import Environment

    env = Environment()
    device = make_device(env, "bf2")
    return _timed(device, jobs, config)
