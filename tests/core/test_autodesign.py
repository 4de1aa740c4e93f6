"""Automatic design selection over the cost model."""

import pytest

from repro.core.autodesign import choose_design, estimate_ratio, predict_pipeline_time
from repro.dpu import make_device
from repro.plan.designs import design


@pytest.fixture
def pair(env):
    return make_device(env, "bf2"), make_device(env, "bf2")


class TestEstimateRatio:
    def test_compressible_text(self, text_payload):
        assert estimate_ratio(text_payload) > 3.0

    def test_random_near_one(self):
        import numpy as np

        blob = np.random.default_rng(0).bytes(40000)
        assert estimate_ratio(blob) == pytest.approx(1.0, abs=0.05)

    def test_empty(self):
        assert estimate_ratio(b"") == 1.0


class TestPrediction:
    def test_prediction_components_positive(self, pair):
        sender, receiver = pair
        choice = predict_pipeline_time(
            sender, receiver, design("C-Engine_DEFLATE"), 5.1e6, 4.0
        )
        assert choice.compress_seconds > 0
        assert choice.transfer_seconds > 0
        assert choice.decompress_seconds > 0
        assert choice.predicted_seconds == pytest.approx(
            choice.compress_seconds
            + choice.transfer_seconds
            + choice.decompress_seconds
        )

    def test_higher_ratio_lowers_transfer(self, pair):
        sender, receiver = pair
        lo = predict_pipeline_time(sender, receiver, design("SoC_LZ4"), 5.1e6, 1.5)
        hi = predict_pipeline_time(sender, receiver, design("SoC_LZ4"), 5.1e6, 6.0)
        assert hi.transfer_seconds < lo.transfer_seconds


class TestChooser:
    def test_bf2_prefers_cengine_deflate_for_big_compressible(self, pair):
        sender, receiver = pair
        ranked = choose_design(sender, receiver, 48.85e6, expected_ratio=4.0)
        assert ranked[0].design.label in ("C-Engine_DEFLATE", "C-Engine_zlib")

    def test_bf3_avoids_cengine_compress_designs(self, env):
        bf3 = make_device(env, "bf3")
        ranked = choose_design(bf3, bf3, 48.85e6, expected_ratio=4.0)
        # LZ4 on SoC is the speed king once the engine can't compress.
        assert ranked[0].design.label in ("SoC_LZ4", "C-Engine_LZ4")

    def test_incompressible_falls_back_to_raw(self, pair):
        sender, receiver = pair
        ranked = choose_design(sender, receiver, 5.1e6, expected_ratio=1.01)
        # With ~no ratio gain, nothing beats the raw wire; the chooser
        # degrades to a single least-bad suggestion.
        assert len(ranked) >= 1

    def test_lossy_candidates(self, pair):
        sender, receiver = pair
        ranked = choose_design(
            sender, receiver, 10e6, expected_ratio=3.0, lossy=True
        )
        assert all(c.design.is_lossy for c in ranked)

    def test_ranking_sorted(self, pair):
        sender, receiver = pair
        ranked = choose_design(
            sender, receiver, 20e6, expected_ratio=3.0, include_raw=False
        )
        times = [c.predicted_seconds for c in ranked]
        assert times == sorted(times)
        assert len(ranked) == 6  # all lossless designs ranked
