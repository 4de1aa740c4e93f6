"""PathSelector: crossover cache, choice consistency, decision memo."""

from __future__ import annotations

import math

import pytest

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
        costs = sel.model.path_costs(Algo.DEFLATE, C, n_star)
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
