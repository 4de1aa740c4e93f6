"""PedalContext: lifecycle, all eight designs on both devices, accounting."""

import numpy as np
import pytest

from repro.core import PedalConfig, PedalContext, Placement, design
from repro.core.api import (
    PHASE_COMP,
    PHASE_DECOMP,
    PHASE_INIT,
    PHASE_PREP,
    PEDAL_compress,
    PEDAL_decompress,
    PEDAL_finalize,
    PEDAL_init,
)
from repro.core.mempool import ScratchStats
from repro.dpu.specs import Algo
from repro.errors import PedalNotInitializedError
from repro.plan.designs import ALL_DESIGNS


@pytest.fixture
def ctx2(env, bf2, run_sim) -> PedalContext:
    ctx = PedalContext(bf2)
    run_sim(env, ctx.init())
    return ctx


@pytest.fixture
def ctx3(env, bf3, run_sim) -> PedalContext:
    ctx = PedalContext(bf3)
    run_sim(env, ctx.init())
    return ctx


class TestLifecycle:
    def test_requires_init(self, env, bf2, run_sim, text_payload):
        ctx = PedalContext(bf2)
        with pytest.raises(PedalNotInitializedError):
            run_sim(env, ctx.compress(text_payload, "SoC_DEFLATE"))
        with pytest.raises(PedalNotInitializedError):
            run_sim(env, ctx.decompress(b"\xff\x01\xff"))

    def test_init_charges_doca_and_prep(self, env, bf2, run_sim):
        ctx = PedalContext(bf2)
        breakdown = run_sim(env, ctx.init())
        assert breakdown.get(PHASE_INIT) == pytest.approx(bf2.cal.doca_init_time)
        assert breakdown.get(PHASE_PREP) > 0
        assert ctx.is_initialized

    def test_double_init_free(self, env, ctx2, run_sim):
        t = env.now
        run_sim(env, ctx2.init())
        assert env.now == t

    def test_finalize(self, env, ctx2, run_sim):
        run_sim(env, ctx2.finalize())
        assert not ctx2.is_initialized
        assert not ctx2.session.is_open

    def test_pool_prewarmed(self, env, bf2, run_sim):
        ctx = PedalContext(bf2, PedalConfig(pool_buffers=7))
        run_sim(env, ctx.init())
        assert ctx.pool is not None and ctx.pool.total_buffers == 7


    def test_init_leaves_host_scratch_alone(self, env, bf2, bf3, run_sim,
                                            scratch_pool):
        """Host scratch is demand-driven: bringing a context up (or back
        up, or a second one) acquires, zero-fills and allocates nothing."""
        ctx = PedalContext(bf2)
        run_sim(env, ctx.init())
        run_sim(env, ctx.finalize())
        run_sim(env, ctx.init())
        run_sim(env, PedalContext(bf3).init())
        assert scratch_pool.stats.zeroed_bytes == 0
        assert scratch_pool.stats.arenas_allocated == 0
        assert scratch_pool.stats == ScratchStats()


class TestAllDesignsRoundtrip:
    @pytest.mark.parametrize("device_fixture", ["ctx2", "ctx3"])
    @pytest.mark.parametrize("dsg", ALL_DESIGNS, ids=lambda d: d.label)
    def test_roundtrip(self, request, env, run_sim, dsg, device_fixture,
                       text_payload, smooth_field):
        ctx = request.getfixturevalue(device_fixture)
        payload = smooth_field if dsg.is_lossy else text_payload
        comp = run_sim(env, ctx.compress(payload, dsg))
        assert comp.compressed_bytes == len(comp.message)
        assert comp.ratio > 1.0
        dec = run_sim(env, ctx.decompress(comp.message, dsg.placement))
        if dsg.is_lossy:
            err = np.abs(
                dec.data.astype(np.float64) - payload.astype(np.float64)
            ).max()
            assert err <= 1e-4 + 1e-6
        else:
            assert dec.data == payload
        assert dec.algo is dsg.algo


class TestAccounting:
    def test_sim_scaling(self, env, ctx2, run_sim, text_payload):
        nominal = 5.1e6
        comp = run_sim(env, ctx2.compress(text_payload, "SoC_DEFLATE", nominal))
        assert comp.sim_original_bytes == nominal
        scale = nominal / len(text_payload)
        assert comp.sim_compressed_bytes == pytest.approx(
            comp.compressed_bytes * scale
        )
        assert comp.breakdown.get(PHASE_COMP) == pytest.approx(
            ctx2.device.cal.soc_time(Algo.DEFLATE, __import__(
                "repro.dpu.specs", fromlist=["Direction"]
            ).Direction.COMPRESS, nominal)
        )

    def test_no_init_phases_at_runtime(self, env, ctx2, run_sim, text_payload):
        comp = run_sim(env, ctx2.compress(text_payload, "C-Engine_DEFLATE", 5.1e6))
        assert comp.breakdown.get(PHASE_INIT) == 0.0
        assert comp.breakdown.get(PHASE_PREP) == 0.0

    def test_cengine_much_faster_than_soc_compress(
        self, env, ctx2, run_sim, text_payload
    ):
        soc = run_sim(env, ctx2.compress(text_payload, "SoC_DEFLATE", 5.1e6))
        ce = run_sim(env, ctx2.compress(text_payload, "C-Engine_DEFLATE", 5.1e6))
        assert soc.sim_seconds / ce.sim_seconds == pytest.approx(101.8, rel=0.02)

    def test_zlib_cengine_includes_header_phase(
        self, env, ctx2, run_sim, text_payload
    ):
        comp = run_sim(env, ctx2.compress(text_payload, "C-Engine_zlib", 1e6))
        assert comp.breakdown.get("header_trailer") > 0

    def test_bf3_cengine_deflate_compress_falls_back(
        self, env, ctx3, run_sim, text_payload
    ):
        comp = run_sim(env, ctx3.compress(text_payload, "C-Engine_DEFLATE", 5.1e6))
        assert comp.resolved.compress_engine == "soc"
        dec = run_sim(env, ctx3.decompress(comp.message, Placement.CENGINE, 5.1e6))
        assert dec.resolved is not None
        assert dec.resolved.decompress_engine == "cengine"

    def test_sz3_hybrid_has_lossless_stage_phase(
        self, env, ctx2, run_sim, smooth_field
    ):
        comp = run_sim(env, ctx2.compress(smooth_field, "C-Engine_SZ3", 10e6))
        assert comp.breakdown.get("lossless_stage") > 0
        assert comp.breakdown.get(PHASE_COMP) > 0

    def test_decompress_phase_recorded(self, env, ctx2, run_sim, text_payload):
        comp = run_sim(env, ctx2.compress(text_payload, "SoC_zlib"))
        dec = run_sim(env, ctx2.decompress(comp.message, Placement.SOC))
        assert dec.breakdown.get(PHASE_DECOMP) > 0


class TestPassthrough:
    def test_passthrough_message(self, env, ctx2, run_sim):
        from repro.plan.header import PedalHeader

        message = PedalHeader.passthrough().encode() + b"raw bytes"
        dec = run_sim(env, ctx2.decompress(message))
        assert dec.data == b"raw bytes"
        assert dec.algo is None
        assert dec.sim_seconds == 0.0


class TestPaperFunctionApi:
    def test_listing1_spellings(self, env, bf2, run_sim, text_payload):
        ctx = PedalContext(bf2)
        run_sim(env, PEDAL_init(ctx))
        comp = run_sim(env, PEDAL_compress(ctx, text_payload, "C-Engine_DEFLATE"))
        dec = run_sim(env, PEDAL_decompress(ctx, comp.message))
        assert dec.data == text_payload
        run_sim(env, PEDAL_finalize(ctx))
        assert not ctx.is_initialized
