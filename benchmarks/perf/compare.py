"""``run.py compare A.json B.json``: did B get worse than A?

One row per workload × end-to-end metric with both values, the run-to-run
spread, the bound from :mod:`metrics` and a verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``regressed`` — it is, and the spread is small enough to say so;
* ``unresolved`` — the spread is wider than the bound, so this pair of
  runs cannot tell (make the rep longer or add rounds; do not loosen the
  bound).
"""

from __future__ import annotations

import json

from metrics import END_TO_END, SUITE_ONLY, Metric, applicable

__all__ = ["compare_files", "compare_results", "verdict"]


def _spread(result: dict, metric: str) -> float:
    """Run-to-run spread as a share of the median, where a metric has
    samples (IQR of the reps; the range of the few set-ups); deterministic
    and single-sample metrics have none."""
    if metric == "wall_s":
        samples = result["wall_samples"]
        return (samples["q3"] - samples["q1"]) / samples["median"]
    if metric == "setup_s" and len(result["setup_samples"]) >= 2:
        values = sorted(result["setup_samples"])
        return (values[-1] - values[0]) / values[len(values) // 2]
    return 0.0


def verdict(metric: Metric, a: float, b: float, spread: float) -> str:
    worse = (b - a) if metric.better == "lower" else (a - b)
    allowed = metric.bound if metric.absolute else metric.bound * abs(a)
    if not metric.absolute and spread > metric.bound:
        return "unresolved"
    return "regressed" if worse > allowed else "ok"


def compare_results(a: dict, b: dict) -> "list[dict]":
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        ra, rb = a["workloads"][name], b["workloads"][name]
        for metric in (*END_TO_END, *SUITE_ONLY):
            if not applicable(metric, name):
                continue
            va = ra["end_to_end"].get(metric.name)
            vb = rb["end_to_end"].get(metric.name)
            if va is None or vb is None:
                continue
            spread = max(_spread(ra, metric.name), _spread(rb, metric.name))
            rows.append({
                "workload": name, "metric": metric.name, "unit": metric.unit,
                "a": va, "b": vb, "spread": spread, "bound": metric.bound,
                "absolute": metric.absolute,
                "verdict": verdict(metric, va, vb, spread),
            })
    return rows


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}): sim-clock "
              "metrics are only comparable at equal seeds")
    rows = compare_results(a, b)
    print(f"{'workload':<17}{'metric':<31}{'A':>14}{'B':>14}"
          f"{'spread':>9}{'bound':>9}  verdict")
    for row in rows:
        bound = f"{row['bound']:g}" + ("abs" if row["absolute"] else "")
        print(f"{row['workload']:<17}{row['metric']:<31}{row['a']:>14.6g}"
              f"{row['b']:>14.6g}{row['spread']:>9.3f}{bound:>9}  "
              f"{row['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("ok", "unresolved", "regressed")}
    print(f"\n{counts['ok']} ok, {counts['unresolved']} unresolved, "
          f"{counts['regressed']} regressed")
    return 1 if counts["regressed"] else 0
