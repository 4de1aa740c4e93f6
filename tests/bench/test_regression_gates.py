"""Regression gates over the committed perf trajectories: BENCH_PR3
(core runtime), BENCH_PR4 (serving layer), BENCH_PR5 (path-selection
crossover sweep), BENCH_PR6 (telemetry plane: exact sim section +
band-only wall section) and BENCH_PR7 (EDPC decoupled model/coder
pipeline), plus the guard that ties the ``regress.REPORTS`` table to
the files at the repo root.

Two layers of protection, the same for every row of the table:

* **Bands** — the headline ratios the reproduction stands on must hold
  both in the committed files and when recomputed from scratch
  (:func:`repro.bench.regress.gate`).
* **Exact trajectory** — the sim clock is deterministic, so a fresh
  :func:`repro.bench.regress.collect` must reproduce every exact
  section of the committed file bit-for-bit
  (:func:`tests.bench.reports.assert_exact`).  Any cost-model or
  scheduler change shows up as a diff here and requires regenerating
  the files (``python benchmarks/regress.py``) in the same PR.
"""

from __future__ import annotations

import copy

import pytest

from repro.bench import regress
from tests.bench.reports import (
    REPO_ROOT,
    assert_exact,
    assert_gate_flags_every_band,
    assert_reproduced,
    committed,
    fresh,
)


def test_report_table_matches_committed_files():
    """Every ``BENCH_PR*.json`` at the repo root is a row of the table
    and every row has its file (no orphan, no missing report), and every
    band of every section names a headline the committed section has."""
    on_disk = {path.name for path in REPO_ROOT.glob("BENCH_PR*.json")}
    assert on_disk == {report.path for report in regress.REPORTS.values()}
    for name, row in regress.REPORTS.items():
        report = committed(name)
        assert report["schema"] == regress.SCHEMA, name
        assert report["generator"] == "repro.bench.regress", name
        for key, section in row.sections.items():
            headlines = (report[key] if key else report)["headlines"]
            assert set(section.bands) <= set(headlines), (name, key)


def test_comparer_catches_round_robin_drift():
    """The exact comparer walks every field of an exact section,
    including the round-robin point no headline is computed from."""
    recorded = committed("serve")
    drifted = copy.deepcopy(recorded)
    drifted["round_robin_at_overload"]["goodput_bytes_s"] *= 1 + 1e-9
    assert_exact("serve", recorded, copy.deepcopy(recorded))
    with pytest.raises(AssertionError,
                       match=r"round_robin_at_overload\.goodput_bytes_s"):
        assert_exact("serve", drifted, recorded)


# ---------------------------------------------------------------------------
# Core runtime trajectory (BENCH_PR3.json)
# ---------------------------------------------------------------------------

def test_fresh_numbers_pass_bands():
    assert regress.gate("core", fresh("core")) == []


def test_committed_report_passes_bands():
    assert regress.gate("core", committed("core")) == []


def test_committed_report_schema():
    """Each pipelined-vs-serial band sits on its two recorded rows."""
    rows = committed("core")["rows"]
    for band in regress.BANDS:
        if band.startswith("pipelined_vs_serial_"):
            point = band[len("pipelined_vs_serial_"):]
            assert {f"ppar_{point}_serial_s", f"ppar_{point}_depth2_s"} <= set(rows)


def test_trajectory_is_reproduced_exactly():
    assert_reproduced("core")


def test_pipelined_strictly_beats_serial():
    """>=8-chunk parallel container at depth>=2 is strictly faster than
    serial on every engine-capable grid point."""
    rows = fresh("core")["rows"]
    for device, direction in (
        ("bf2", "compress"), ("bf2", "decompress"), ("bf3", "decompress")
    ):
        serial = rows[f"ppar_{device}_{direction}_serial_s"]
        piped = rows[f"ppar_{device}_{direction}_depth2_s"]
        assert piped < serial


def test_gate_reports_violations():
    assert_gate_flags_every_band("core")


def test_gate_reports_missing_headline():
    violations = regress.gate("core", {"headlines": {}})
    assert len(violations) == len(regress.BANDS)
    assert all("missing" in v for v in violations)


# ---------------------------------------------------------------------------
# Serving-layer trajectory (BENCH_PR4.json)
# ---------------------------------------------------------------------------

def test_serve_fresh_numbers_pass_bands():
    assert regress.gate("serve", fresh("serve")) == []


def test_serve_committed_report_passes_bands():
    assert regress.gate("serve", committed("serve")) == []


def test_serve_committed_report_schema():
    assert set(committed("serve")["curves"]) == {"batched", "unbatched"}


def test_serve_trajectory_is_reproduced_exactly():
    assert_reproduced("serve")


def test_serve_batched_goodput_beats_unbatched_at_saturation():
    """At the saturating (top) offered load the batched gateway serves
    strictly more bytes per second."""
    batched = fresh("serve")["curves"]["batched"][-1]
    unbatched = fresh("serve")["curves"]["unbatched"][-1]
    assert batched["offered_req_s"] == unbatched["offered_req_s"]
    assert batched["goodput_bytes_s"] > unbatched["goodput_bytes_s"]


def test_serve_queue_depth_bounded_under_overload():
    """The top sweep point is >2x the unbatched fleet capacity, yet
    pending never exceeds the admission bound — overload is shed, not
    queued."""
    report = fresh("serve")
    for label in ("batched", "unbatched"):
        top = report["curves"][label][-1]
        assert top["peak_pending"] <= report["config"]["max_pending"]
    assert report["curves"]["unbatched"][-1]["shed"] > 0  # the bound engaged


def test_serve_gate_reports_violations():
    assert_gate_flags_every_band("serve")


# ---------------------------------------------------------------------------
# Path-selection trajectory (BENCH_PR5.json)
# ---------------------------------------------------------------------------

def test_select_fresh_numbers_pass_bands():
    assert regress.gate("select", fresh("select")) == []


def test_select_committed_report_passes_bands():
    assert regress.gate("select", committed("select")) == []


def test_select_committed_report_schema():
    assert committed("select")["config"]["tolerance"] == regress.SELECT_TOLERANCE


def test_select_trajectory_is_reproduced_exactly():
    assert_reproduced("select")


def test_select_auto_never_loses_to_best_static():
    """Per sweep point, auto latency <= the best forced path within the
    stated tolerance."""
    report = fresh("select")
    tol = report["config"]["tolerance"]
    for key, row in report["rows"].items():
        best = min(row["soc_s"], row["cengine_s"])
        assert row["auto_s"] <= best * (1.0 + tol), key


def test_select_paper_shaped_crossover():
    """SoC wins at the smallest size, the engine wins at the largest,
    and the calibrated crossover sits inside the sweep — on every
    engine-capable grid line."""
    report = fresh("select")
    headlines = report["headlines"]
    assert headlines["select_paper_shape_ok"] == 1.0
    sizes = report["config"]["sizes"]
    for grid in ("bf2_compress", "bf2_decompress", "bf3_decompress"):
        crossover = headlines[f"select_crossover_{grid}_bytes"]
        assert sizes[0] < crossover < sizes[-1]
        first = report["rows"][f"{grid}_{sizes[0]}"]
        last = report["rows"][f"{grid}_{sizes[-1]}"]
        assert first["soc_s"] < first["cengine_s"]
        assert last["cengine_s"] < last["soc_s"]
        assert first["auto_path"] == "soc"
        assert last["auto_path"] == "cengine"


def test_select_bf3_compress_never_routes_to_engine():
    report = fresh("select")
    assert report["headlines"]["select_bf3_compress_engine_picks"] == 0.0
    for size in report["config"]["sizes"]:
        assert report["rows"][f"bf3_compress_{size}"]["auto_path"] == "soc"


def test_select_gate_reports_violations():
    assert_gate_flags_every_band("select")


def test_select_gate_reports_missing_headline():
    violations = regress.gate("select", {"headlines": {}})
    assert len(violations) == len(regress.SELECT_BANDS)
    assert all("missing" in v for v in violations)


# ---------------------------------------------------------------------------
# Telemetry-plane trajectory (BENCH_PR6.json)
# ---------------------------------------------------------------------------

def test_obs_fresh_numbers_pass_bands():
    assert regress.gate("obs", fresh("obs")) == []


def test_obs_committed_sim_section_passes_bands():
    """The sim section of the committed file; its wall section records
    the generating host's measurements, which the fresh report
    re-measures on this host instead of trusting."""
    violations = regress.gate("obs", committed("obs"))
    assert [v for v in violations if v.split(":")[0] in regress.OBS_SIM_BANDS] == []


def test_obs_committed_report_schema():
    report = committed("obs")
    assert report["config"]["overhead_ceiling"] \
        == regress.OBS_WALL_BANDS["obs_overhead_ratio"][1]


def test_obs_sim_trajectory_is_reproduced_exactly():
    """Fleet quantiles, alert stream, per-gateway rows, the serve point
    and the config; the wall section is not compared."""
    assert_reproduced("obs")


def test_obs_telemetry_is_bit_for_bit():
    """The serve experiment's simulated numbers are identical with
    telemetry on and off."""
    assert fresh("obs")["sim"]["headlines"]["obs_bit_for_bit"] == 1.0


def test_obs_fleet_quantile_error_within_alpha():
    headlines = fresh("obs")["sim"]["headlines"]
    alpha = headlines["obs_sketch_alpha"]
    assert headlines["obs_fleet_p50_rel_err"] <= alpha
    assert headlines["obs_fleet_p99_rel_err"] <= alpha


def test_obs_overhead_and_top_kernel():
    """Telemetry costs <= the ceiling on this host, and the flamegraph
    names the LZ77 match loop as the top kernel on the DEFLATE compress
    path."""
    wall = fresh("obs")["wall"]
    assert wall["headlines"]["obs_overhead_ratio"] \
        <= regress.OBS_WALL_BANDS["obs_overhead_ratio"][1]
    assert wall["top_kernel"] == "lz77.match_loop"
    assert wall["headlines"]["obs_top_kernel_is_lz77"] == 1.0


def test_obs_gate_reports_violations():
    assert_gate_flags_every_band("obs")


def test_obs_gate_reports_missing_sections():
    violations = regress.gate("obs", {})
    assert len(violations) == (
        len(regress.OBS_SIM_BANDS) + len(regress.OBS_WALL_BANDS)
    )
    assert all("missing" in v for v in violations)


# ---------------------------------------------------------------------------
# EDPC decoupled-pipeline trajectory (BENCH_PR7.json)
# ---------------------------------------------------------------------------

def test_edpc_fresh_numbers_pass_bands():
    assert regress.gate("edpc", fresh("edpc")) == []


def test_edpc_committed_report_passes_bands():
    assert regress.gate("edpc", committed("edpc")) == []


def test_edpc_committed_report_schema():
    sections = {row["section"] for row in committed("edpc")["rows"]}
    assert sections == {"ratio", "pipeline"}


def test_edpc_trajectory_is_reproduced_exactly():
    assert_reproduced("edpc")


def test_edpc_pipelined_never_slower_at_any_size():
    """Pipelined sim time <= unpipelined at every swept size, with the
    headline speedup at the largest."""
    report = fresh("edpc")
    pipeline_rows = [row for row in report["rows"] if row["section"] == "pipeline"]
    assert pipeline_rows
    for row in pipeline_rows:
        assert row["pipelined_s"] <= row["serial_s"] * (1 + 1e-12)
    largest = max(pipeline_rows, key=lambda row: row["sim_mb"])
    assert largest["speedup"] == pytest.approx(
        report["headlines"]["edpc_pipelined_vs_unpipelined_large"]
    )
    # Real bytes ride the sim at the largest size and must be identical.
    assert largest["bytes_identical"] is True


def test_edpc_ratio_rows_are_honest():
    """AC trades ratio for adaptivity on these corpora: every dataset
    row must carry a real measured ratio (> 1) and the deflate
    comparison the headline bands pin."""
    ratio = {}
    for row in fresh("edpc")["rows"]:
        if row["section"] == "ratio":
            assert row["ratio"] > 1.0
            ratio[(row["dataset"], row["algo"])] = row["ratio"]
    for dataset in ("silesia/xml", "silesia/mozilla", "obs_error"):
        assert (dataset, "ac") in ratio and (dataset, "deflate") in ratio


def test_edpc_gate_reports_violations():
    assert_gate_flags_every_band("edpc")


def test_edpc_gate_reports_missing_headline():
    violations = regress.gate("edpc", {"headlines": {}})
    assert len(violations) == len(regress.EDPC_BANDS)
    assert all("missing" in v for v in violations)
