"""Path selection for the ``ac`` backend: SoC-only pricing.

The adaptive-context range coder has no C-Engine implementation on
either BlueField generation, so the selector must (a) advertise only
the SoC path, (b) report an infinite crossover, and (c) price the SoC
path exactly off the 12/15 MB/s calibration anchors — ``path="auto"``
then always lands on the SoC, at every size.
"""

from __future__ import annotations

import math

import pytest

from repro.core.charges import job_plan
from repro.dpu.specs import Algo, Direction
from repro.select import PATH_SOC, CostModel, PathSelector

DIRECTIONS = (Direction.COMPRESS, Direction.DECOMPRESS)


class TestCapability:
    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_soc_only_on_both_generations(self, bf2, bf3, direction):
        for device in (bf2, bf3):
            model = CostModel(device)
            assert model.capable_paths(Algo.AC, direction) == (PATH_SOC,)
            assert not model.engine_capable(Algo.AC, direction)

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_crossover_is_infinite(self, bf2, direction):
        selector = PathSelector(bf2)
        assert selector.crossover_bytes(Algo.AC, direction) == math.inf

    @pytest.mark.parametrize("sim_bytes", [512.0, 5.1e6, 64e6])
    def test_auto_routes_to_soc_at_every_size(self, bf2, sim_bytes):
        """No size is big enough to reach an engine that does not
        exist — unlike DEFLATE, where large ops cross over."""
        selector = PathSelector(bf2)
        decision = selector.choose(Algo.AC, Direction.COMPRESS, sim_bytes)
        assert decision.path == PATH_SOC
        assert decision.crossover_bytes == math.inf
        assert set(decision.costs) == {PATH_SOC}

    def test_job_costs_have_no_engine_lane(self, bf2):
        selector = PathSelector(bf2)
        costs = selector.job_costs(Algo.AC, Direction.COMPRESS, 1e6, 1e6)
        assert set(costs) == {PATH_SOC}
        assert selector.job_engine(
            Algo.AC, Direction.COMPRESS, 1e6, 1e6
        ) == PATH_SOC


class TestPricing:
    @pytest.mark.parametrize("direction,mb_per_s", [
        (Direction.COMPRESS, 12.0),
        (Direction.DECOMPRESS, 15.0),
    ])
    def test_soc_job_matches_calibration_anchor(self, bf2, direction,
                                                mb_per_s):
        # No engine lane: the job plan is the SoC work-steal alone.
        (stage,) = job_plan(bf2, Algo.AC, direction, 12e6, 12e6)
        assert stage[2] == pytest.approx(12e6 / (mb_per_s * 1e6))
        (stage,) = job_plan(bf2, Algo.AC, direction, 1e6, 1e6)
        assert stage[2] == bf2.cal.soc_time(Algo.AC, direction, 1e6)
        assert PathSelector(bf2).job_costs(Algo.AC, direction, 1e6, 1e6) \
            == {PATH_SOC: stage[2]}

    def test_bf3_soc_carries_the_generation_scale(self, bf2, bf3):
        scale = bf3.spec.soc.perf_scale
        for direction in DIRECTIONS:
            t2 = bf2.cal.soc_time(Algo.AC, direction, 1e6)
            t3 = bf3.cal.soc_time(Algo.AC, direction, 1e6)
            assert t3 == pytest.approx(t2 / scale)
