"""End-to-end ``python -m repro.bench`` CLI: trace/metrics/json outputs."""

import inspect
import json

import pytest

from repro.bench import __main__ as bench_main
from repro.bench import experiments  # noqa: F401  (registers every id)
from repro.bench.__main__ import main
from repro.bench.harness import EXPERIMENTS, ExperimentResult
from repro.obs import NULL_METRICS, NULL_TRACER, get_metrics, get_tracer


@pytest.fixture(scope="module")
def fig7_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    trace = tmp / "fig7.trace.json"
    metrics = tmp / "fig7.metrics.json"
    out = tmp / "fig7.json"
    rc = main([
        "fig7",
        "--actual-bytes", "4096",
        "--trace", str(trace),
        "--metrics", str(metrics),
        "--json", str(out),
    ])
    assert rc == 0
    return (
        json.loads(trace.read_text()),
        json.loads(metrics.read_text()),
        json.loads(out.read_text()),
    )


class TestChromeTraceAcceptance:
    def test_every_event_has_required_keys(self, fig7_outputs):
        trace, _, _ = fig7_outputs
        events = trace["traceEvents"]
        assert events
        for event in events:
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in event

    def test_expected_spans_present(self, fig7_outputs):
        trace, _, _ = fig7_outputs
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        for want in ("doca.init", "buffer.prep", "cengine.compress"):
            assert want in names

    def test_nesting_consistent_on_each_track(self, fig7_outputs):
        """Child span intervals lie within some enclosing span's interval."""
        trace, _, _ = fig7_outputs
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_tid = {}
        for e in spans:
            by_tid.setdefault(e["tid"], []).append(e)
        eps = 1e-6  # trace timestamps are micros; float slop
        for name in ("doca.init", "cengine.compress"):
            for child in (e for e in spans if e["name"] == name):
                outers = [
                    e for e in by_tid[child["tid"]]
                    if e is not child
                    and e["ts"] <= child["ts"] + eps
                    and child["ts"] + child["dur"] <= e["ts"] + e["dur"] + eps
                ]
                assert outers, f"unparented {name} at ts={child['ts']}"

    def test_total_duration_matches_experiment(self, fig7_outputs):
        trace, _, out = fig7_outputs
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        trace_total = max(e["ts"] + e["dur"] for e in spans) / 1e6
        rows = out["experiments"][0]["rows"]
        sim_total = sum(row["total_s"] for row in rows)
        assert trace_total == pytest.approx(sim_total, rel=0.01)
        assert trace["otherData"]["sim_seconds_total"] == pytest.approx(
            trace_total, rel=0.01
        )

    def test_timestamps_monotone_in_creation_order(self, fig7_outputs):
        trace, _, _ = fig7_outputs
        starts = [e["ts"] for e in trace["traceEvents"] if e["ph"] == "X"]
        assert starts == sorted(starts)


class TestMetricsOutput:
    def test_expected_instruments_collected(self, fig7_outputs):
        _, metrics, _ = fig7_outputs
        counters = metrics["counters"]
        assert counters["cengine.jobs"] > 0
        assert counters["cengine.bytes.compress"] > 0
        assert counters["codec.deflate.bytes_in"] > 0
        assert counters["codec.deflate.bytes_out"] > 0
        assert "cengine.queue_depth" in metrics["histograms"]
        assert "cengine.queue_wait_s" in metrics["histograms"]


class TestJsonOutput:
    def test_rows_and_metadata(self, fig7_outputs):
        _, _, out = fig7_outputs
        assert out["generator"] == "repro.bench"
        (exp,) = out["experiments"]
        assert exp["experiment"] == "fig7"
        assert exp["rows"]
        assert set(exp["columns"]) <= set(exp["rows"][0])
        assert exp["headlines"]
        assert out["args"]["actual_bytes"] == 4096


class TestGlobalStateRestored:
    def test_cli_restores_noop_tracer_and_metrics(self, fig7_outputs):
        assert get_tracer() is NULL_TRACER
        assert get_metrics() is NULL_METRICS


class TestExperimentIds:
    def test_every_experiment_accepts_actual_bytes(self):
        assert "cluster" in EXPERIMENTS
        for name, fn in EXPERIMENTS.items():
            assert "actual_bytes" in inspect.signature(fn).parameters, name

    def test_all_runs_every_registered_experiment(self, monkeypatch):
        ran = []

        def fake_run(name, **kwargs):
            ran.append((name, kwargs))
            return ExperimentResult(name, name, ["x"], rows=[{"x": 1}])

        monkeypatch.setattr(bench_main, "run_experiment", fake_run)
        assert main(["all", "--actual-bytes", "1024"]) == 0
        assert ran == [(name, {"actual_bytes": 1024}) for name in EXPERIMENTS]
