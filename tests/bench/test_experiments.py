"""Experiment smoke tests with small payloads: shape assertions only.

The full-size headline-band assertions live in ``benchmarks/`` (the
pytest-benchmark drivers); here we check each experiment runs, produces
its grid, and preserves the qualitative orderings at reduced scale.
"""

import pytest

from repro.bench.experiments import run_experiment

SMALL = 16 * 1024


@pytest.fixture(scope="module")
def fig7():
    return run_experiment("fig7", actual_bytes=SMALL)


@pytest.fixture(scope="module")
def fig8():
    return run_experiment("fig8", actual_bytes=SMALL)


@pytest.fixture(scope="module")
def fig9():
    return run_experiment("fig9", actual_bytes=SMALL)


class TestFig7:
    def test_grid_complete(self, fig7):
        # 2 devices x 6 designs x 5 datasets.
        assert len(fig7.rows) == 60

    def test_overhead_dominates_bf2_engine_at_small_sizes(self, fig7):
        frac = fig7.headlines[
            "bf2_cengine_deflate_xml_overhead_frac (paper ~0.94)"
        ]
        assert 0.85 <= frac <= 0.99

    def test_soc_designs_have_no_doca_init(self, fig7):
        for row in fig7.rows:
            if row["design"].startswith("SoC_"):
                assert row["doca_init_s"] == 0.0

    def test_engine_rows_have_doca_init(self, fig7):
        for row in fig7.rows:
            if row["device"] == "bf2" and row["design"] == "C-Engine_DEFLATE":
                assert row["doca_init_s"] > 0


class TestFig8:
    def test_grid_complete(self, fig8):
        assert len(fig8.rows) == 60

    def test_headline_bands(self, fig8):
        h = fig8.headlines
        assert h["bf2_deflate_xml_compress_speedup (paper 101.8)"] == pytest.approx(
            101.8, rel=0.05
        )
        assert h["bf2_deflate_xml_decompress_speedup (paper 11.2)"] == pytest.approx(
            11.2, rel=0.05
        )
        assert h["bf3_vs_bf2_cengine_deflate_decomp_5MB (paper 1.78)"] == pytest.approx(
            1.78, rel=0.05
        )

    def test_times_scale_with_dataset_size(self, fig8):
        # Fig. 8 insight 1: larger datasets take longer, per design.
        for device in ("bf2", "bf3"):
            for design in ("SoC_DEFLATE", "C-Engine_DEFLATE", "SoC_zlib"):
                rows = [
                    r
                    for r in fig8.rows
                    if r["device"] == device and r["design"] == design
                ]
                times = [r["compress_s"] for r in rows]
                assert times == sorted(times)

    def test_decompress_faster_than_compress_on_soc(self, fig8):
        # Fig. 8 insight 2 — checked on the SoC paths.  (On the C-Engine
        # at ~5 MB the paper's own factors imply the opposite: its
        # decompression job overhead exceeds its compression overhead.)
        for row in fig8.rows:
            if row["design"].startswith("SoC_"):
                assert row["decompress_s"] < row["compress_s"]


class TestFig9:
    def test_grid_complete(self, fig9):
        # 2 devices x 2 designs x 3 datasets.
        assert len(fig9.rows) == 12

    def test_bf2_designs_comparable(self, fig9):
        ratio = fig9.headlines["bf2_cengine_over_soc_total_10MB (paper ~1.0)"]
        assert 0.8 <= ratio <= 1.2

    def test_bf3_soc_wins(self, fig9):
        ratio = fig9.headlines["bf3_soc_speedup_over_cengine_10MB (paper ~1.58)"]
        assert 1.2 <= ratio <= 2.0


class TestTable5:
    def test_rows_and_deviation(self):
        # Generators were tuned at 256 KiB; at this reduced size the
        # band is looser.  The tight (<15%) check runs in benchmarks/.
        result = run_experiment("table5", actual_bytes=64 * 1024)
        assert len(result.rows) == 8
        assert result.headlines["max_deflate_ratio_rel_error"] < 0.45

    def test_zlib_equals_deflate_ratio(self):
        result = run_experiment("table5", actual_bytes=32 * 1024)
        for row in result.rows:
            if "zlib" in row and row.get("zlib"):
                assert row["zlib"] == pytest.approx(row["DEFLATE"], rel=0.01)


class TestMpiExperiments:
    def test_fig10_shapes(self):
        result = run_experiment("fig10", actual_bytes=SMALL)
        assert result.headlines[
            "bf2_cengine_best_speedup_vs_baseline (paper ~88)"
        ] > 20
        assert 0.2 <= result.headlines[
            "bf3_soc_latency_reduction_vs_bf2 (paper ~0.40)"
        ] <= 0.5
        assert result.headlines[
            "bf3_cengine_worst_latency_over_baseline (paper >1)"
        ] > 1.0

    def test_fig11_shapes(self):
        result = run_experiment("fig11", actual_bytes=SMALL)
        assert result.headlines[
            "bf2_cengine_best_speedup_vs_baseline (paper ~68)"
        ] > 10
        assert 0.3 <= result.headlines[
            "bf3_soc_mean_bcast_reduction (paper ~0.49)"
        ] <= 0.65
