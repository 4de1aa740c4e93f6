"""Regenerate Fig. 9 and assert the SZ3 placement story.

Paper claims re-checked (§V-C2):
* BF2: SoC and C-Engine-assisted SZ3 are comparable, and the engine
  "does not detrimentally affect" performance;
* BF3: the SoC design wins by up to ~1.58x at 10 MB (fallback
  SoC-DEFLATE backend);
* decompression of lossy-compressed data consistently outperforms
  compression.
"""

from conftest import run_once

from repro.bench.experiments import run_experiment


def test_fig9(benchmark, experiment_kwargs):
    result = run_once(benchmark, run_experiment, "fig9", **experiment_kwargs)
    h = result.headlines

    assert 0.8 <= h["bf2_cengine_over_soc_total_10MB (paper ~1.0)"] <= 1.1
    assert 1.3 <= h["bf3_soc_speedup_over_cengine_10MB (paper ~1.58)"] <= 1.9

    for row in result.rows:
        assert row["decompression_s"] < row["compression_s"]
        # Naive-flow rows carry per-op init on the engine path only.
        if row["design"] == "C-Engine_SZ3":
            assert row["doca_init_s"] > 0
        else:
            assert row["doca_init_s"] == 0.0
        # PEDAL hoists those overheads.
        assert row["pedal_total_s"] < row["total_s"]
