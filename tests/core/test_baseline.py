"""The naive (non-PEDAL) baseline's per-operation overhead accounting."""

import pytest

from repro.core.api import PHASE_INIT, PHASE_PREP
from repro.core.baseline import NaiveCompressor
from repro.plan.designs import Placement
from repro.plan.header import HEADER_SIZE


@pytest.fixture
def naive2(bf2) -> NaiveCompressor:
    return NaiveCompressor(bf2)


class TestOverheadCharging:
    def test_cengine_design_pays_doca_init_per_op(
        self, env, bf2, naive2, run_sim, text_payload
    ):
        comp = run_sim(env, naive2.compress(text_payload, "C-Engine_DEFLATE", 5.1e6))
        assert comp.breakdown.get(PHASE_INIT) == pytest.approx(
            bf2.cal.doca_init_time
        )
        assert comp.breakdown.get(PHASE_PREP) > bf2.cal.buffer_fixed_time

    def test_overheads_charged_again_on_second_op(
        self, env, naive2, run_sim, text_payload
    ):
        c1 = run_sim(env, naive2.compress(text_payload, "C-Engine_DEFLATE", 5.1e6))
        c2 = run_sim(env, naive2.compress(text_payload, "C-Engine_DEFLATE", 5.1e6))
        assert c2.breakdown.get(PHASE_INIT) == c1.breakdown.get(PHASE_INIT) > 0

    def test_soc_design_pays_alloc_not_doca(self, env, naive2, run_sim, text_payload):
        comp = run_sim(env, naive2.compress(text_payload, "SoC_DEFLATE", 5.1e6))
        assert comp.breakdown.get(PHASE_INIT) == 0.0
        assert 0 < comp.breakdown.get(PHASE_PREP) < 0.01

    def test_decompress_also_pays(self, env, naive2, run_sim, text_payload):
        comp = run_sim(env, naive2.compress(text_payload, "C-Engine_DEFLATE", 5.1e6))
        dec = run_sim(
            env, naive2.decompress(comp.message, Placement.CENGINE, 5.1e6)
        )
        assert dec.breakdown.get(PHASE_INIT) > 0
        assert dec.data == text_payload

    def test_overhead_dominates_at_5mb(self, env, naive2, run_sim, text_payload):
        # The Fig. 7 claim: ~94% of a naive C-Engine op pair is overhead.
        comp = run_sim(env, naive2.compress(text_payload, "C-Engine_DEFLATE", 5.1e6))
        dec = run_sim(env, naive2.decompress(comp.message, Placement.CENGINE, 5.1e6))
        merged = comp.breakdown.merge(dec.breakdown)
        assert merged.fraction(PHASE_INIT, PHASE_PREP) > 0.90


class TestProducesSameBytesAsPedal:
    def test_message_identical_to_pedal(
        self, env, bf2, naive2, run_sim, text_payload
    ):
        from repro.core import PedalContext

        ctx = PedalContext(bf2)
        run_sim(env, ctx.init())
        pedal = run_sim(env, ctx.compress(text_payload, "C-Engine_DEFLATE"))
        naive = run_sim(env, naive2.compress(text_payload, "C-Engine_DEFLATE"))
        assert pedal.message == naive.message

    def test_round_trip_leaves_the_same_codec_counters_as_pedal(
        self, env, bf2, naive2, run_sim, text_payload
    ):
        """One op body: both directions count ``codec.<algo>.bytes_*``
        in both flows."""
        from repro import obs
        from repro.core import PedalContext

        def codec_counters(compressor):
            registry = obs.MetricsRegistry()
            previous = obs.set_metrics(registry)
            try:
                comp = run_sim(env, compressor.compress(
                    text_payload, "C-Engine_zlib", 5.1e6))
                run_sim(env, compressor.decompress(comp.message))
            finally:
                obs.set_metrics(previous)
            return {k: v for k, v in registry.as_dict()["counters"].items()
                    if k.startswith("codec.")}

        ctx = PedalContext(bf2)
        run_sim(env, ctx.init())
        pedal, naive = codec_counters(ctx), codec_counters(naive2)
        assert naive == pedal
        # Each direction's input is the other's output (less the header
        # the compressed side carries), so a flow that skipped one shows.
        assert pedal["codec.zlib.bytes_out"] - pedal["codec.zlib.bytes_in"] \
            == HEADER_SIZE
        assert pedal["codec.zlib.bytes_in"] > len(text_payload)

    def test_lossy_roundtrip(self, env, naive2, run_sim, smooth_field):
        import numpy as np

        comp = run_sim(env, naive2.compress(smooth_field, "C-Engine_SZ3", 10e6))
        dec = run_sim(env, naive2.decompress(comp.message, Placement.CENGINE, 10e6))
        err = np.abs(
            dec.data.astype(np.float64) - smooth_field.astype(np.float64)
        ).max()
        assert err <= 1e-4 + 1e-6

    def test_passthrough_decompress(self, env, naive2, run_sim):
        from repro.plan.header import PedalHeader

        message = PedalHeader.passthrough().encode() + b"plain"
        dec = run_sim(env, naive2.decompress(message))
        assert dec.data == b"plain"
