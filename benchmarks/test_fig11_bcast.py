"""Regenerate Fig. 11 and assert the collective headline bands.

Paper claims re-checked (§V-E):
* BF2's C-Engine: up to 68x faster broadcast than the naive baseline
  (measured here ~25-35x: our binomial tree serialises fewer naive
  per-hop overheads than the paper's setup — same order, see
  EXPERIMENTS.md);
* BF3's SoC: ~49% average reduction in broadcast time.
"""

from conftest import run_once

from repro.bench.experiments import run_experiment


def test_fig11(benchmark, experiment_kwargs):
    result = run_once(benchmark, run_experiment, "fig11", **experiment_kwargs)
    h = result.headlines

    assert 15 <= h["bf2_cengine_best_speedup_vs_baseline (paper ~68)"] <= 90
    assert 0.35 <= h["bf3_soc_mean_bcast_reduction (paper ~0.49)"] <= 0.60

    # Every BF2 PEDAL row beats its own naive baseline.  BF3 C-Engine
    # designs are allowed to lose — the paper's own observation: they
    # "occasionally even register a slight increase in latency compared
    # to the baseline" (§V-E).
    for row in result.rows:
        if row["design"].startswith("Baseline_"):
            continue
        if row["device"] == "bf2":
            assert row["vs_baseline"] > 1.0
        elif row["design"].startswith("SoC_"):
            assert row["vs_baseline"] > 1.0
    bf3_engine_worst = min(
        row["vs_baseline"]
        for row in result.rows
        if row["device"] == "bf3" and row["design"].startswith("C-Engine_")
    )
    assert bf3_engine_worst < 1.0  # the BF3 C-Engine penalty is visible

    # Broadcast time grows with message size per design/device.
    order = {"small": 0, "medium": 1, "large": 2}
    curves = {}
    for row in result.rows:
        curves.setdefault((row["device"], row["design"]), []).append(
            (order[row["message"]], row["bcast_s"])
        )
    for points in curves.values():
        points.sort()
        times = [t for _, t in points]
        assert times == sorted(times)
