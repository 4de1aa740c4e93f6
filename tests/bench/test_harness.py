"""Experiment harness plumbing."""

import pytest

from repro.bench.experiments import run_experiment
from repro.bench.harness import (
    ExperimentResult,
    generate_payload,
    run_naive_roundtrip,
    run_pedal_roundtrip,
)

SMALL = 16 * 1024


class TestPayloadCache:
    def test_cached_identity(self):
        a = generate_payload("silesia/xml", SMALL)
        b = generate_payload("silesia/xml", SMALL)
        assert a is b

    def test_distinct_per_size(self):
        a = generate_payload("silesia/xml", SMALL)
        b = generate_payload("silesia/xml", SMALL * 2)
        assert len(a) != len(b)


class TestRoundtripDrivers:
    def test_pedal_roundtrip_record(self):
        rec = run_pedal_roundtrip(
            "bf2", "C-Engine_DEFLATE", "silesia/xml", actual_bytes=SMALL
        )
        assert rec.compress_seconds > 0
        assert rec.decompress_seconds > 0
        assert rec.ratio > 2
        assert rec.init_seconds > 0.05  # DOCA init charged at init

    def test_naive_roundtrip_record(self):
        rec = run_naive_roundtrip(
            "bf2", "C-Engine_DEFLATE", "silesia/xml", actual_bytes=SMALL
        )
        assert rec.init_seconds == 0.0  # charged per op instead
        assert rec.compress_seconds > run_pedal_roundtrip(
            "bf2", "C-Engine_DEFLATE", "silesia/xml", actual_bytes=SMALL
        ).compress_seconds

    def test_sim_bytes_override(self):
        small = run_pedal_roundtrip(
            "bf2", "SoC_DEFLATE", "silesia/xml", sim_bytes=1e6, actual_bytes=SMALL
        )
        large = run_pedal_roundtrip(
            "bf2", "SoC_DEFLATE", "silesia/xml", sim_bytes=2e6, actual_bytes=SMALL
        )
        assert large.compress_seconds == pytest.approx(
            2 * small.compress_seconds
        )


class TestRegistry:
    def test_all_experiments_registered(self):
        from repro.bench.harness import EXPERIMENTS
        import repro.bench.experiments  # noqa: F401 — triggers registration

        assert {
            "fig7", "fig8", "fig9", "fig10", "fig11", "table4", "table5"
        } <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_table4_runs_and_renders(self):
        result = run_experiment("table4", actual_bytes=SMALL)
        assert isinstance(result, ExperimentResult)
        assert len(result.rows) == 8
        rendered = result.render()
        assert "silesia/xml" in rendered
        assert "exaalt-dataset2" in rendered
