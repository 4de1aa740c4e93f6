"""Regenerate Fig. 10 and assert the communication headline bands.

Paper claims re-checked (§V-D):
* PEDAL C-Engine DEFLATE/zlib up to ~88x faster than the baseline on
  BF2 (measured here: ~80x at the small end of the sweep);
* BF3 SoC designs reduce latency by up to ~40% vs BF2 SoC;
* BF3 C-Engine DEFLATE/zlib can exceed even the baseline;
* SZ3 latency reductions of ~47.3% (BF2) / ~48% (BF3).
"""

from conftest import run_once

from repro.bench.experiments import run_experiment


def test_fig10(benchmark, experiment_kwargs):
    result = run_once(benchmark, run_experiment, "fig10", **experiment_kwargs)
    h = result.headlines

    assert 40 <= h["bf2_cengine_best_speedup_vs_baseline (paper ~88)"] <= 120
    assert 0.30 <= h["bf3_soc_latency_reduction_vs_bf2 (paper ~0.40)"] <= 0.50
    assert h["bf3_cengine_worst_latency_over_baseline (paper >1)"] > 1.0
    assert 0.35 <= h["bf2_sz3_latency_reduction_vs_baseline (paper ~0.473)"] <= 0.60
    assert 0.40 <= h["bf3_sz3_latency_reduction_vs_baseline (paper ~0.48)"] <= 0.75

    # Latency grows with message size within every curve.
    curves = {}
    for row in result.rows:
        key = (row["panel"], row["dataset"], row["device"], row["design"])
        curves.setdefault(key, []).append((row["msg_mb"], row["latency_s"]))
    for points in curves.values():
        points.sort()
        latencies = [lat for _, lat in points]
        assert latencies == sorted(latencies)
