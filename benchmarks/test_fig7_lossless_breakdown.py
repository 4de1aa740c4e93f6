"""Regenerate Fig. 7 and assert its headline shape.

Paper claims re-checked:
* DOCA init + buffer prep ≈ 94% of a naive 5.1 MB C-Engine op pair;
* naive C-Engine accelerates lossless designs on BF2 by up to ~9.67x.
"""

from conftest import run_once

from repro.bench.experiments import run_experiment


def test_fig7(benchmark, experiment_kwargs):
    result = run_once(benchmark, run_experiment, "fig7", **experiment_kwargs)

    frac = result.headlines["bf2_cengine_deflate_xml_overhead_frac (paper ~0.94)"]
    assert 0.88 <= frac <= 0.99

    best = result.headlines["bf2_naive_cengine_best_speedup (paper ~9.67)"]
    assert 5.0 <= best <= 15.0

    # Structural: every C-Engine row on BF2 carries the one-time costs.
    for row in result.rows:
        if row["device"] == "bf2" and row["design"] in (
            "C-Engine_DEFLATE",
            "C-Engine_zlib",
        ):
            assert row["doca_init_s"] > 0
            assert row["buffer_prep_s"] > 0
            assert row["overhead_frac"] > 0.5

    # Buffer prep grows with dataset size within a design.
    for design in ("C-Engine_DEFLATE", "SoC_DEFLATE"):
        preps = [
            r["buffer_prep_s"]
            for r in result.rows
            if r["device"] == "bf2" and r["design"] == design
        ]
        assert preps == sorted(preps)
