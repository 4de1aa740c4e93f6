"""repro.select wired through the runtime, the router, and the scheduler."""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.api import PATH_AUTO, PedalContext
from repro.dpu.specs import Algo, Direction
from repro.plan.designs import Placement, UnknownDesignError
from repro.sched import EngineJob, PipelineScheduler, SchedConfig
from repro.select import PATH_CENGINE, PATH_SOC, PathSelector
from repro.serve import CostAwareRouter, DpuWorker, make_router


@pytest.fixture
def pedal(bf2, env, run_sim):
    ctx = PedalContext(bf2)
    run_sim(env, ctx.init())
    return ctx


class _Batch:
    """Router-facing batch stub with explicit billing sizes."""

    def __init__(self, direction, engine_bytes, soc_bytes=None):
        self.direction = direction
        self.engine_sim_bytes = float(engine_bytes)
        self.soc_sim_bytes = float(
            engine_bytes if soc_bytes is None else soc_bytes
        )


class TestPedalContextAuto:
    def test_small_compress_stays_on_soc(self, pedal, env, run_sim,
                                         text_payload):
        result = run_sim(env, pedal.compress(
            text_payload, Algo.DEFLATE, sim_bytes=1024.0, path="auto"
        ))
        assert result.resolved.engine_for(Direction.COMPRESS) == PATH_SOC

    def test_large_compress_takes_the_engine(self, pedal, env, run_sim,
                                             text_payload):
        result = run_sim(env, pedal.compress(
            text_payload, Algo.DEFLATE, sim_bytes=float(1 << 20), path="auto"
        ))
        assert result.resolved.engine_for(Direction.COMPRESS) == PATH_CENGINE

    def test_bare_algo_defaults_to_auto(self, pedal, env, run_sim,
                                        text_payload):
        """A bare algorithm spec (no placement) means "you pick"."""
        small = run_sim(env, pedal.compress(
            text_payload, "deflate", sim_bytes=1024.0
        ))
        large = run_sim(env, pedal.compress(
            text_payload, "deflate", sim_bytes=float(1 << 20)
        ))
        assert small.resolved.engine_for(Direction.COMPRESS) == PATH_SOC
        assert large.resolved.engine_for(Direction.COMPRESS) == PATH_CENGINE

    def test_full_design_keeps_its_placement(self, pedal, env, run_sim,
                                             text_payload):
        """An explicit design placement is never second-guessed."""
        result = run_sim(env, pedal.compress(
            text_payload, "C-Engine_DEFLATE", sim_bytes=1.0
        ))
        assert result.resolved.engine_for(Direction.COMPRESS) == PATH_CENGINE

    def test_forced_path_overrides_design(self, pedal, env, run_sim,
                                          text_payload):
        result = run_sim(env, pedal.compress(
            text_payload, "C-Engine_DEFLATE", sim_bytes=float(1 << 20),
            path=Placement.SOC,
        ))
        assert result.resolved.engine_for(Direction.COMPRESS) == PATH_SOC

    def test_auto_decompress_roundtrip(self, pedal, env, run_sim,
                                       text_payload):
        comp = run_sim(env, pedal.compress(text_payload, "deflate"))
        out = run_sim(env, pedal.decompress(comp.message, placement="auto"))
        assert out.data == text_payload

    def test_auto_decompress_picks_by_size(self, pedal, env, run_sim,
                                           text_payload):
        comp = run_sim(env, pedal.compress(text_payload, "deflate"))
        small = run_sim(env, pedal.decompress(
            comp.message, placement="auto", sim_bytes=1024.0
        ))
        large = run_sim(env, pedal.decompress(
            comp.message, placement="auto", sim_bytes=float(1 << 20)
        ))
        assert small.resolved.engine_for(Direction.DECOMPRESS) == PATH_SOC
        assert large.resolved.engine_for(Direction.DECOMPRESS) == PATH_CENGINE

    def test_bf3_auto_compress_never_engine(self, bf3, env, run_sim,
                                            text_payload):
        ctx = PedalContext(bf3)
        run_sim(env, ctx.init())
        result = run_sim(env, ctx.compress(
            text_payload, Algo.DEFLATE, sim_bytes=float(64 << 20), path="auto"
        ))
        assert result.resolved.engine_for(Direction.COMPRESS) == PATH_SOC

    def test_bf3_auto_decompress_uses_the_fast_engine(self, bf3, env, run_sim,
                                                      text_payload):
        ctx = PedalContext(bf3)
        run_sim(env, ctx.init())
        comp = run_sim(env, ctx.compress(text_payload, "deflate"))
        result = run_sim(env, ctx.decompress(
            comp.message, placement="auto", sim_bytes=float(1 << 20)
        ))
        assert result.resolved.engine_for(Direction.DECOMPRESS) == PATH_CENGINE

    def test_crossover_cache_is_warm_across_ops(self, pedal, env, run_sim,
                                                text_payload):
        for _ in range(4):
            run_sim(env, pedal.compress(
                text_payload, "deflate", sim_bytes=1024.0
            ))
        info = pedal.selector.cache_info()
        assert info["misses"] == 1
        assert info["hits"] >= 3

    def test_auto_spans_record_the_decision(self, bf2, env, run_sim,
                                            text_payload):
        tracer = obs.Tracer()
        prev = obs.set_tracer(tracer)
        try:
            ctx = PedalContext(bf2)
            run_sim(env, ctx.init())
            run_sim(env, ctx.compress(
                text_payload, "deflate", sim_bytes=1024.0
            ))
        finally:
            obs.set_tracer(prev)
        (span,) = tracer.find("pedal.compress")
        assert span.attrs["path_mode"] == PATH_AUTO
        assert span.attrs["select_crossover_bytes"] > 0
        assert span.attrs["select_predicted_s"] > 0

    def test_unknown_path_string_rejected(self, pedal, env, run_sim,
                                          text_payload):
        with pytest.raises(UnknownDesignError):
            run_sim(env, pedal.compress(text_payload, "deflate", path="host"))


class TestCostAwareRouter:
    def test_registered(self):
        assert make_router("cost_aware").name == "cost_aware"

    def test_decompress_prefers_the_faster_engine(self, env):
        """At equal load, a bulk decompress batch lands on BF-3: its
        engine overhead is ~161 us vs BF-2's ~1 ms."""
        from repro.dpu import make_device

        bf2 = DpuWorker(make_device(env, "bf2"))
        bf3 = DpuWorker(make_device(env, "bf3"))
        pick = CostAwareRouter().pick(
            [bf2, bf3], _Batch(Direction.DECOMPRESS, 64 * 1024, 256 * 1024)
        )
        assert pick is bf3

    def test_compress_filtered_to_capable_workers(self, env):
        """BF-3 has no compress engine, so compress batches go to BF-2
        even when BF-3 sits first in fleet order."""
        from repro.dpu import make_device

        bf3 = DpuWorker(make_device(env, "bf3"))
        bf2 = DpuWorker(make_device(env, "bf2"))
        pick = CostAwareRouter().pick(
            [bf3, bf2], _Batch(Direction.COMPRESS, 1 << 20)
        )
        assert pick is bf2

    def test_load_scaling_diverts_from_busy_worker(self, env):
        """The cost x (load + 1) score routes around queue depth."""
        from repro.dpu import make_device

        class _Loaded(DpuWorker):
            __slots__ = ()

            @property
            def load(self):
                return 50

        busy_bf3 = _Loaded(make_device(env, "bf3"))
        idle_bf2 = DpuWorker(make_device(env, "bf2"))
        pick = CostAwareRouter().pick(
            [busy_bf3, idle_bf2],
            _Batch(Direction.DECOMPRESS, 64 * 1024, 256 * 1024),
        )
        assert pick is idle_bf2


class TestCostAwareSteal:
    def test_default_config_keeps_old_behavior(self, env, bf2, run_sim):
        """The scheduler never steals on cost: a tiny capable job the
        cost model prices cheaper on an SoC core still runs on the
        engine."""
        assert PathSelector(bf2).job_engine(
            Algo.DEFLATE, Direction.COMPRESS, 64.0, 64.0) == PATH_SOC
        sched = PipelineScheduler(bf2)
        job = EngineJob(Algo.DEFLATE, Direction.COMPRESS, 64.0)
        (outcome,) = run_sim(env, sched.submit_many([job]))
        assert outcome.engine == "cengine"
