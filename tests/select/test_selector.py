"""PathSelector: crossover cache, choice consistency, online refinement."""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.core.api import PedalContext
from repro.dpu.specs import Algo, Direction
from repro.plan.designs import Placement
from repro.select import PATH_CENGINE, PATH_SOC, PathSelector

C, D = Direction.COMPRESS, Direction.DECOMPRESS


class TestCrossoverCache:
    def test_first_lookup_misses_then_hits(self, bf2):
        sel = PathSelector(bf2)
        n_star = sel.crossover_bytes(Algo.DEFLATE, C)
        assert sel.cache_info() == {"hits": 0, "misses": 1, "size": 1}
        assert sel.crossover_bytes(Algo.DEFLATE, C) == n_star
        assert sel.cache_info()["hits"] == 1

    def test_paper_shaped_values(self, bf2, bf3):
        """The calibrated crossovers land where Tables II/III put them:
        a few KiB for BF-2 DEFLATE compression, ~hundreds of KiB for
        decompression, and *never* for BF-3 compression (decompress-only
        engine)."""
        s2, s3 = PathSelector(bf2), PathSelector(bf3)
        assert 4e3 < s2.crossover_bytes(Algo.DEFLATE, C) < 16e3
        assert 128e3 < s2.crossover_bytes(Algo.DEFLATE, D) < 512e3
        assert 32e3 < s3.crossover_bytes(Algo.DEFLATE, D) < 128e3
        assert s3.crossover_bytes(Algo.DEFLATE, C) == math.inf

    def test_crossover_sits_on_the_cost_tie(self, bf2):
        """n* is exactly where the two affine cost lines meet."""
        sel = PathSelector(bf2)
        n_star = sel.crossover_bytes(Algo.DEFLATE, C)
        costs = sel.predict(Algo.DEFLATE, C, n_star)
        assert costs[PATH_SOC] == pytest.approx(costs[PATH_CENGINE], rel=1e-9)

    def test_amortization_raises_the_crossover(self, bf2):
        """Paying per-op DOCA init pushes the break-even size up."""
        sel = PathSelector(bf2)
        assert sel.crossover_bytes(Algo.DEFLATE, C, amortized=False) \
            > sel.crossover_bytes(Algo.DEFLATE, C, amortized=True)

    def test_decision_records_cache_provenance(self, bf2):
        sel = PathSelector(bf2)
        first = sel.choose(Algo.DEFLATE, C, 1024.0)
        second = sel.choose(Algo.DEFLATE, C, 1 << 20)
        assert not first.from_cache
        assert second.from_cache
        assert first.crossover_bytes == second.crossover_bytes


class TestChoose:
    @pytest.mark.parametrize("n", [1.0, 1024.0, 6304.0, 6305.0, 1 << 26])
    def test_choice_is_the_argmin(self, bf2, n):
        sel = PathSelector(bf2)
        decision = sel.choose(Algo.DEFLATE, C, n)
        assert decision.predicted_seconds == min(decision.costs.values())
        assert decision.path == min(
            decision.costs, key=lambda p: (decision.costs[p], p != PATH_CENGINE)
        )

    def test_small_soc_large_engine(self, bf2):
        sel = PathSelector(bf2)
        assert sel.choose(Algo.DEFLATE, C, 1024.0).path == PATH_SOC
        assert sel.choose(Algo.DEFLATE, C, 1 << 20).path == PATH_CENGINE

    def test_tie_goes_to_the_engine(self, bf2):
        sel = PathSelector(bf2)
        n_star = sel.crossover_bytes(Algo.DEFLATE, C)
        assert sel.choose(Algo.DEFLATE, C, n_star).path == PATH_CENGINE

    def test_bf3_compress_always_soc(self, bf3):
        sel = PathSelector(bf3)
        for n in (1.0, 1 << 20, 1 << 26):
            decision = sel.choose(Algo.DEFLATE, C, n)
            assert decision.path == PATH_SOC
            assert decision.crossover_bytes == math.inf
            assert PATH_CENGINE not in decision.costs

    def test_allow_engine_false_forces_soc(self, bf2):
        """Models a context whose DOCA bring-up failed."""
        sel = PathSelector(bf2)
        decision = sel.choose(Algo.DEFLATE, C, 1 << 26, allow_engine=False)
        assert decision.path == PATH_SOC

    def test_placement_property(self, bf2):
        sel = PathSelector(bf2)
        assert sel.choose(Algo.DEFLATE, C, 1.0).placement is Placement.SOC
        assert sel.choose(Algo.DEFLATE, C, 1 << 26).placement \
            is Placement.CENGINE

    def test_sz3_stage_hint_compares_costs_directly(self, bf2):
        """A measured stage size shifts the engine path off its cached
        affine line, so the decision must match the direct argmin."""
        sel = PathSelector(bf2)
        n = 10e6
        for stage in (n / 10.0, n / 3.0, n):
            decision = sel.choose(Algo.SZ3, C, n, stage_bytes=stage)
            assert decision.predicted_seconds == min(decision.costs.values())


class _Unmemoised(PathSelector):
    """The selector with its decision memo switched off: every choose()
    builds its decision from scratch."""

    def choose(self, *args, **kwargs):
        self._decisions.clear()
        return super().choose(*args, **kwargs)


# (algo, direction, sim_bytes, kwargs): hits and misses of every memo
# key field, sizes either side of the BF-2 DEFLATE crossover.
_CALLS = [
    (Algo.DEFLATE, C, 1024.0, {}),
    (Algo.DEFLATE, C, 1 << 20, {}),
    (Algo.DEFLATE, C, 1024, {}),
    (Algo.DEFLATE, C, 1 << 20, {"allow_engine": False}),
    (Algo.DEFLATE, D, 1 << 20, {}),
    (Algo.DEFLATE, C, 1 << 20, {"amortized": False}),
    (Algo.SZ3, D, 1 << 20, {"stage_bytes": 1 << 18}),
    (Algo.SZ3, D, 1 << 20, {"stage_bytes": 1 << 17}),
    (Algo.SZ3, D, 1 << 20, {"stage_bytes": 1 << 18}),
    (Algo.LZ4, C, 4096.0, {}),
    (Algo.DEFLATE, C, 1024.0, {}),
    (Algo.DEFLATE, D, 1 << 20, {}),
]


class TestDecisionMemo:
    def test_hit_equals_a_fresh_decision(self, bf2, bf3):
        for device in (bf2, bf3):
            sel, ref = PathSelector(device), _Unmemoised(device)
            for algo, direction, n, kwargs in _CALLS * 2:
                hit = sel.choose(algo, direction, n, **kwargs)
                fresh = ref.choose(algo, direction, n, **kwargs)
                assert hit == fresh
                assert hit.from_cache == fresh.from_cache
                assert dict(hit.costs) == dict(fresh.costs)

    def test_cache_info_matches_the_unmemoised_selector(self, bf2):
        sel, ref = PathSelector(bf2), _Unmemoised(bf2)
        for i, (algo, direction, n, kwargs) in enumerate(_CALLS * 3):
            sel.choose(algo, direction, n, **kwargs)
            ref.choose(algo, direction, n, **kwargs)
            assert sel.cache_info() == ref.cache_info(), i
        for s in (sel, ref):
            s.crossover_bytes(Algo.ZLIB, C)
        assert sel.cache_info() == ref.cache_info()

    def test_observe_that_moves_a_correction_drops_decisions(self, bf2):
        sel, ref = PathSelector(bf2), _Unmemoised(bf2)
        n = 1 << 20
        before = sel.choose(Algo.DEFLATE, C, n)
        assert before.path == PATH_CENGINE
        ref.choose(Algo.DEFLATE, C, n)
        for s in (sel, ref):
            s.choose(Algo.DEFLATE, C, n)
            predicted = s.model.path_seconds(Algo.DEFLATE, C, n, PATH_CENGINE)
            s.observe(PATH_CENGINE, Algo.DEFLATE, C, n, 4.0 * predicted)
        assert sel._decisions == {}
        after = sel.choose(Algo.DEFLATE, C, n)
        assert after == ref.choose(Algo.DEFLATE, C, n)
        assert after.costs[PATH_CENGINE] > before.costs[PATH_CENGINE]
        assert sel.cache_info() == ref.cache_info()

    def test_observe_that_moves_nothing_keeps_decisions(self, bf2):
        sel = PathSelector(bf2)
        decision = sel.choose(Algo.DEFLATE, C, 1e6)
        sel.observe(PATH_CENGINE, Algo.DEFLATE, C, 1e6,
                    decision.predicted_seconds)
        assert sel.choose(Algo.DEFLATE, C, 1e6).costs is decision.costs

    def test_memo_is_bounded(self, bf2):
        sel = PathSelector(bf2)
        for i in range(600):
            sel.choose(Algo.DEFLATE, C, float(i))
            assert len(sel._decisions) <= 256

    def test_costs_are_read_only(self, bf2):
        decision = PathSelector(bf2).choose(Algo.DEFLATE, C, 1 << 20)
        with pytest.raises(TypeError):
            decision.costs[PATH_SOC] = 0.0
        with pytest.raises(TypeError):
            del decision.costs[PATH_SOC]


class TestJobCosts:
    def test_engine_lane_listed_only_when_supported(self, bf2, bf3):
        assert PATH_CENGINE in PathSelector(bf2).job_costs(
            Algo.DEFLATE, C, 1e6, 1e6
        )
        assert PATH_CENGINE not in PathSelector(bf3).job_costs(
            Algo.DEFLATE, C, 1e6, 1e6
        )

    def test_job_engine_prefers_cengine_on_bulk(self, bf2):
        sel = PathSelector(bf2)
        assert sel.job_engine(Algo.DEFLATE, C, 8e6, 8e6) == PATH_CENGINE
        assert sel.job_engine(Algo.DEFLATE, C, 64.0, 64.0) == PATH_SOC

    def test_bf3_jobs_always_soc(self, bf3):
        sel = PathSelector(bf3)
        assert sel.job_engine(Algo.DEFLATE, C, 8e6, 8e6) == PATH_SOC


class TestObserve:
    def test_exact_observation_changes_nothing(self, bf2):
        """Feeding back the model's own prediction leaves the
        correction at 1.0 and keeps the cache warm."""
        sel = PathSelector(bf2)
        predicted = sel.choose(Algo.DEFLATE, C, 1e6).predicted_seconds
        new = sel.observe(PATH_CENGINE, Algo.DEFLATE, C, 1e6, predicted)
        assert new == 1.0
        assert sel.cache_info()["size"] == 1

    def test_slow_path_observation_moves_the_crossover(self, bf2):
        """An engine observed 2x slower than calibrated shifts the
        break-even size up — and invalidates the memoized value."""
        sel = PathSelector(bf2)
        before = sel.crossover_bytes(Algo.DEFLATE, C)
        predicted = sel.model.path_seconds(Algo.DEFLATE, C, 1e6, PATH_CENGINE)
        sel.observe(PATH_CENGINE, Algo.DEFLATE, C, 1e6, 2.0 * predicted)
        assert sel.correction(PATH_CENGINE, Algo.DEFLATE, C) > 1.0
        assert sel.cache_info()["size"] == 0  # invalidated
        assert sel.crossover_bytes(Algo.DEFLATE, C) > before

    def test_ewma_step(self, bf2):
        sel = PathSelector(bf2, refine_alpha=0.25)
        predicted = sel.model.path_seconds(Algo.DEFLATE, C, 1e6, PATH_SOC)
        new = sel.observe(PATH_SOC, Algo.DEFLATE, C, 1e6, 2.0 * predicted)
        # old + alpha * (ratio - old) = 1 + 0.25 * (2 - 1)
        assert new == pytest.approx(1.25)

    def test_corrections_are_clamped(self, bf2):
        sel = PathSelector(bf2, correction_bounds=(0.25, 4.0))
        predicted = sel.model.path_seconds(Algo.DEFLATE, C, 1e6, PATH_SOC)
        for _ in range(100):
            sel.observe(PATH_SOC, Algo.DEFLATE, C, 1e6, 1000.0 * predicted)
        assert sel.correction(PATH_SOC, Algo.DEFLATE, C) == 4.0
        for _ in range(100):
            sel.observe(PATH_SOC, Algo.DEFLATE, C, 1e6, 1e-6 * predicted)
        assert sel.correction(PATH_SOC, Algo.DEFLATE, C) == 0.25

    def test_nonpositive_samples_ignored(self, bf2):
        sel = PathSelector(bf2)
        assert sel.observe(PATH_SOC, Algo.DEFLATE, C, 1e6, 0.0) == 1.0
        assert sel.observations == 0


class TestRefineFromSpans:
    def test_refines_from_recorded_pedal_spans(self, env, bf2, run_sim,
                                               text_payload):
        """Spans recorded by the real runtime feed straight back in —
        and because the model mirrors the simulator exactly, the
        corrections stay at 1.0."""
        tracer = obs.Tracer()
        prev = obs.set_tracer(tracer)
        try:
            ctx = PedalContext(bf2)
            run_sim(env, ctx.init())
            comp = run_sim(env, ctx.compress(
                text_payload, "C-Engine_DEFLATE", sim_bytes=5.1e6
            ))
            run_sim(env, ctx.decompress(comp.message, sim_bytes=5.1e6))
        finally:
            obs.set_tracer(prev)

        sel = PathSelector(bf2)
        count = sel.refine_from_spans(tracer)
        assert count == 2
        assert sel.correction(PATH_CENGINE, Algo.DEFLATE, C) \
            == pytest.approx(1.0, rel=1e-9)
        assert sel.correction(PATH_CENGINE, Algo.DEFLATE, D) \
            == pytest.approx(1.0, rel=1e-9)

    def test_ignores_other_devices(self, env, bf2, bf3, run_sim,
                                   text_payload):
        tracer = obs.Tracer()
        prev = obs.set_tracer(tracer)
        try:
            ctx = PedalContext(bf2)
            run_sim(env, ctx.init())
            run_sim(env, ctx.compress(text_payload, "C-Engine_DEFLATE"))
        finally:
            obs.set_tracer(prev)
        assert PathSelector(bf3).refine_from_spans(tracer) == 0

    def test_empty_tracer_is_a_noop(self, bf2):
        sel = PathSelector(bf2)
        assert sel.refine_from_spans(obs.Tracer()) == 0
        assert sel.observations == 0
