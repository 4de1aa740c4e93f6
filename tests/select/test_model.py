"""CostModel: the charge plan, summed per (algorithm, direction, path)."""

from __future__ import annotations

import math

import pytest

from repro.core.api import PedalContext
from repro.dpu.specs import Algo, Direction
from repro.plan.charges import job_plan, steal_stage
from repro.plan.designs import CompressionDesign, Placement
from repro.select import ALL_PATHS, PATH_CENGINE, PATH_SOC, CostModel

LOSSLESS = (Algo.DEFLATE, Algo.ZLIB, Algo.LZ4)
DIRECTIONS = (Direction.COMPRESS, Direction.DECOMPRESS)


@pytest.fixture
def pedal_bf2(bf2, run_sim, env):
    ctx = PedalContext(bf2)
    run_sim(env, ctx.init())
    return ctx


class TestCapabilities:
    def test_bf2_deflate_both_directions(self, bf2):
        model = CostModel(bf2)
        for direction in DIRECTIONS:
            assert model.capable_paths(Algo.DEFLATE, direction) == ALL_PATHS

    def test_bf3_compress_soc_only(self, bf3):
        model = CostModel(bf3)
        for algo in (Algo.DEFLATE, Algo.ZLIB, Algo.SZ3):
            assert model.capable_paths(algo, Direction.COMPRESS) == (PATH_SOC,)

    def test_bf3_decompress_engine_capable(self, bf3):
        model = CostModel(bf3)
        assert PATH_CENGINE in model.capable_paths(
            Algo.DEFLATE, Direction.DECOMPRESS
        )

    def test_zlib_rides_the_deflate_core(self, bf2, bf3):
        assert CostModel(bf2).engine_capable(Algo.ZLIB, Direction.COMPRESS)
        assert not CostModel(bf3).engine_capable(Algo.ZLIB, Direction.COMPRESS)

    def test_unknown_path_rejected(self, bf2):
        with pytest.raises(ValueError, match="unknown path"):
            CostModel(bf2).path_seconds(
                Algo.DEFLATE, Direction.COMPRESS, 1024.0, "host"
            )


class TestMatchesSimulator:
    """The model must predict the simulated breakdown *exactly* for
    every forced (algo, direction, path) — the selector's zero-slack
    guarantee rests on this.  These BF-2 lossless rows are the
    selector-side view of the full device x algo x placement x direction
    x hoisted grid in ``tests/core/test_charges.py`` (SZ3 stage hints,
    AC, ``path="auto"``, the naive prefix and autodesign are rows
    there)."""

    @pytest.mark.parametrize("algo", LOSSLESS)
    @pytest.mark.parametrize("n", [512.0, 64e3, 5.1e6])
    @pytest.mark.parametrize(
        "placement,path",
        [(Placement.SOC, PATH_SOC), (Placement.CENGINE, PATH_CENGINE)],
    )
    def test_compress(self, pedal_bf2, env, run_sim, text_payload,
                      algo, n, placement, path):
        model = CostModel(pedal_bf2.device)
        result = run_sim(env, pedal_bf2.compress(
            text_payload, CompressionDesign(algo, placement), sim_bytes=n
        ))
        assert result.sim_seconds == pytest.approx(
            model.path_seconds(algo, Direction.COMPRESS, n, path),
            rel=1e-12,
        )

    @pytest.mark.parametrize("n", [512.0, 5.1e6])
    @pytest.mark.parametrize(
        "placement,path",
        [(Placement.SOC, PATH_SOC), (Placement.CENGINE, PATH_CENGINE)],
    )
    def test_decompress(self, pedal_bf2, env, run_sim, text_payload,
                        n, placement, path):
        model = CostModel(pedal_bf2.device)
        message = run_sim(env, pedal_bf2.compress(
            text_payload, "C-Engine_DEFLATE"
        )).message
        result = run_sim(env, pedal_bf2.decompress(
            message, placement=placement, sim_bytes=n
        ))
        assert result.sim_seconds == pytest.approx(
            model.path_seconds(Algo.DEFLATE, Direction.DECOMPRESS, n, path),
            rel=1e-12,
        )


class TestAffinity:
    """Every path cost is affine in n — the crossover closed form's
    precondition."""

    @pytest.mark.parametrize("algo", LOSSLESS + (Algo.SZ3,))
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("path", ALL_PATHS)
    @pytest.mark.parametrize("amortized", [True, False])
    def test_affine(self, bf2, algo, direction, path, amortized):
        model = CostModel(bf2)
        t = lambda n: model.path_seconds(  # noqa: E731
            algo, direction, n, path, amortized=amortized
        )
        a = t(0.0)
        # Estimate the slope from a large point — n=1 would lose the
        # slope to float cancellation against the fixed overheads.
        slope = (t(2.0**20) - a) / 2.0**20
        for n in (3_333.0, 1e6, 64e6):
            assert t(n) == pytest.approx(a + slope * n, rel=1e-9)

    def test_amortization_only_adds_cost(self, bf2):
        model = CostModel(bf2)
        for path in ALL_PATHS:
            for n in (0.0, 1024.0, 5.1e6):
                assert model.path_seconds(
                    Algo.DEFLATE, Direction.COMPRESS, n, path, amortized=False
                ) > model.path_seconds(
                    Algo.DEFLATE, Direction.COMPRESS, n, path, amortized=True
                )

    def test_naive_engine_pays_doca_init(self, bf2):
        model = CostModel(bf2)
        amortized = model.path_seconds(
            Algo.DEFLATE, Direction.COMPRESS, 0.0, PATH_CENGINE
        )
        naive = model.path_seconds(
            Algo.DEFLATE, Direction.COMPRESS, 0.0, PATH_CENGINE,
            amortized=False,
        )
        assert naive - amortized >= bf2.cal.doca_init_time


class TestJobCosts:
    """A pipeline job's exec stage is the engine path's one-stage op
    plan; its work-steal is the SoC path's."""

    def test_engine_job_matches_calibration(self, bf2):
        _, exec_stage, _ = job_plan(
            bf2, Algo.DEFLATE, Direction.COMPRESS, 1e6, 1e6)
        assert exec_stage[2] == bf2.cal.cengine_time(
            Algo.DEFLATE, Direction.COMPRESS, 1e6)
        assert exec_stage[2] == CostModel(bf2).path_seconds(
            Algo.DEFLATE, Direction.COMPRESS, 1e6, PATH_CENGINE)

    def test_soc_job_matches_calibration(self, bf2):
        steal = steal_stage(job_plan(
            bf2, Algo.DEFLATE, Direction.DECOMPRESS, 0.3e6, 1e6))
        assert steal[2] == bf2.cal.soc_time(
            Algo.DEFLATE, Direction.DECOMPRESS, 1e6)
        assert steal[2] == CostModel(bf2).path_seconds(
            Algo.DEFLATE, Direction.DECOMPRESS, 1e6, PATH_SOC)

    def test_math_is_finite(self, bf2):
        model = CostModel(bf2)
        for path in ALL_PATHS:
            value = model.path_seconds(
                Algo.DEFLATE, Direction.COMPRESS, 64 * 2**20, path
            )
            assert math.isfinite(value) and value > 0
