"""Self-tests of the benchmark harness (not part of tier-1 collection).

Run explicitly::

    python -m pytest benchmarks/perf/tests -q

They use the ``--quick`` size class and finish in well under a minute.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERF = os.path.dirname(HERE)
ROOT = os.path.dirname(os.path.dirname(PERF))
sys.path[:0] = [os.path.join(ROOT, "src"), PERF]

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from inputs import Inputs  # noqa: E402
from layers import ENTRIES  # noqa: E402


# -- self-time arithmetic ------------------------------------------------------

def _span(layer, name, start, end, parent, first=True):
    return [layer, name, start, end, parent, None, first, 0, 0]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span("bench", "rep", 0.0, 10.0, -1),        # 0: root
        _span("mpi", "send", 1.0, 6.0, 0),           # 1
        _span("core", "compress", 2.0, 5.0, 1),      # 2
        _span("algorithms", "deflate", 2.5, 4.5, 2),  # 3
        _span("sim", "step", 7.0, 9.0, 0),           # 4
        _span("mpi", "send", 7.5, 8.0, 4, first=False),  # 5: a later slice
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.5, 0.5])
    # Self times under a root sum to the root's duration exactly.
    assert sum(own) == pytest.approx(10.0)
    totals = tracing.layer_totals(spans)
    assert totals["mpi"] == (pytest.approx(2.5), 1)  # two slices, one call
    assert totals["algorithms"] == (pytest.approx(2.0), 1)


# -- the generator-slice wrapper -------------------------------------------------

def _recorder():
    rec = tracing.Recorder()
    rec.active = True
    return rec


def test_sliced_generator_passes_values_returns_and_exceptions_through():
    log = []

    def gen(x):
        got = yield x + 1
        log.append(got)
        try:
            yield "second"
        except KeyError as exc:
            log.append(repr(exc))
            yield "recovered"
        return 2.5

    rec = _recorder()
    wrapped = tracing.wrap(rec, gen, "sim", "gen")(10)
    assert next(wrapped) == 11
    assert wrapped.send("hello") == "second"
    assert wrapped.throw(KeyError("boom")) == "recovered"
    with pytest.raises(StopIteration) as stop:
        next(wrapped)
    assert stop.value.value == 2.5
    assert log == ["hello", "KeyError('boom')"]
    spans, returns = rec.take()
    assert [s[tracing.FIRST] for s in spans] == [True, False, False, False]
    assert returns == {"gen": 2.5}  # float results are summed per name


def test_sliced_generator_propagates_uncaught_exceptions_and_close():
    closed = []

    def gen():
        try:
            yield 1
            raise ValueError("inside")
        finally:
            closed.append(True)

    rec = _recorder()
    wrapped = tracing.wrap(rec, gen, "sim", "gen")()
    next(wrapped)
    with pytest.raises(ValueError, match="inside"):
        next(wrapped)
    assert closed == [True]
    rec.take()  # no span left open

    other = tracing.wrap(rec, gen, "sim", "gen")()
    next(other)
    other.close()
    assert closed == [True, True]
    rec.take()


def test_yield_from_through_nested_wrapped_generators_nests_spans():
    rec = _recorder()

    def inner():
        yield "a"
        return 7

    wrapped_inner = tracing.wrap(rec, inner, "core", "inner")

    def outer():
        value = yield from wrapped_inner()
        return value + 1

    wrapped = tracing.wrap(rec, outer, "mpi", "outer")()
    assert next(wrapped) == "a"
    with pytest.raises(StopIteration) as stop:
        next(wrapped)
    assert stop.value.value == 8
    spans, _ = rec.take()
    by_index = {i: s for i, s in enumerate(spans)}
    for span in spans:
        if span[tracing.NAME] == "inner":
            assert by_index[span[tracing.PARENT]][tracing.NAME] == "outer"


# -- install / restore -----------------------------------------------------------

def _repro_bindings():
    import repro  # noqa: F401  (populates sys.modules)
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is not None and name.partition(".")[0] == "repro":
            snapshot[name] = dict(vars(module))
    return snapshot


def test_every_rebound_name_is_restored_after_tracing():
    import workloads  # noqa: F401  (so workload modules are scanned too)
    from repro.core.api import PedalContext
    from repro.sim.engine import Environment

    before = _repro_bindings()
    methods = (PedalContext.__dict__["compress"], Environment.__dict__["step"])
    trace = tracing.Tracing(ENTRIES)
    trace.install()
    try:
        import repro.serve.gateway as gateway
        assert hasattr(gateway.deflate_compress, "__wrapped__")
        assert hasattr(Environment.__dict__["step"], "__wrapped__")
    finally:
        trace.restore()
    assert (PedalContext.__dict__["compress"],
            Environment.__dict__["step"]) == methods
    after = _repro_bindings()
    for name, bindings in before.items():
        for key, value in bindings.items():
            assert after[name][key] is value, f"{name}.{key} not restored"


# -- determinism: runs, traced vs untraced ---------------------------------------

@pytest.fixture(scope="module")
def quick_runs():
    names = ["serve_sweep", "cluster_fleet"]
    first = run.measure(names, seed=11, quick=True, rounds=3, seconds=None,
                        trace=True)
    second = run.measure(names, seed=11, quick=True, rounds=3, seconds=None,
                         trace=False)
    other_seed = run.measure(names, seed=12, quick=True, rounds=3,
                             seconds=None, trace=False)
    return first, second, other_seed


def _deterministic(result):
    e2e = result["end_to_end"]
    return {k: v for k, v in e2e.items()
            if k not in ("setup_s", "wall_s", "peak_rss_mb")}


def test_sim_metrics_repeat_across_runs_and_under_tracing(quick_runs):
    first, second, _ = quick_runs
    for name in first:
        # measure() itself fails a workload whose traced sim metrics or
        # outputs differ from the untraced worker's.
        assert first[name]["failed"] == 0, first[name]["failures"]
        assert second[name]["failed"] == 0, second[name]["failures"]
        assert _deterministic(first[name]) == _deterministic(second[name])
        assert first[name]["outputs_sha256"] == second[name]["outputs_sha256"]
        ratio = first[name]["layers"]["bench.layers_sum_ratio"]
        assert 0.98 <= ratio <= 1.02


def test_a_second_seed_runs_green_with_different_inputs(quick_runs):
    _, second, other_seed = quick_runs
    for name in second:
        assert other_seed[name]["failed"] == 0, other_seed[name]["failures"]
        assert other_seed[name]["inputs_sha256"] != second[name]["inputs_sha256"]
        assert _deterministic(other_seed[name]) != _deterministic(second[name])


def test_inputs_are_a_pure_function_of_the_seed():
    def build(seed):
        inputs = Inputs(seed)
        windows = inputs.windows("t", "obs_error", 16384, 3, 256)
        return windows, inputs.order("o", 8), inputs.sha256()

    assert build(3) == build(3)
    assert build(3)[2] != build(4)[2]


# -- definitions -------------------------------------------------------------------

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_names_units_and_counts_are_within_the_contract():
    names = ([m.name for m in metrics.END_TO_END]
             + [m.name for m in metrics.PER_LAYER] + list(metrics.WORKLOADS))
    assert len(names) == len(set(names))
    assert all(_NAME.match(n) for n in names)
    assert all(_UNIT.match(m.unit)
               for m in (*metrics.END_TO_END, *metrics.PER_LAYER))
    assert 2 <= len(metrics.WORKLOADS) <= 8
    assert 1 <= len(metrics.END_TO_END) <= 16
    assert 1 <= len(metrics.PER_LAYER) <= 128
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    assert all(len(why) <= 200 and "\n" not in why
               for why in metrics.WORKLOADS.values())
    setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)


def test_benchmark_json_mirrors_the_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perf"]
    assert spec["workloads"] == [
        {"name": n, "why": w} for n, w in metrics.WORKLOADS.items()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.PER_LAYER]


# -- compare -----------------------------------------------------------------------

def test_compare_verdicts():
    wall = next(m for m in metrics.END_TO_END if m.name == "wall_s")
    assert compare.verdict(wall, 1.0, 1.0 + 0.5 * wall.bound, spread=0.02) == "ok"
    assert compare.verdict(wall, 1.0, 1.0 + 2 * wall.bound, spread=0.02) == "regressed"
    assert compare.verdict(wall, 1.0, 1.05, spread=2 * wall.bound) == "unresolved"
    sim = next(m for m in metrics.SUITE_ONLY if m.name == "sim_s")
    assert compare.verdict(sim, 2.0, 2.0, spread=0.0) == "ok"
    assert compare.verdict(sim, 2.0, 2.0 + 1e-6, spread=0.0) == "regressed"
    rate = next(m for m in metrics.SUITE_ONLY
                if m.name == "sim_max_rate_within_slo_req_s")
    assert compare.verdict(rate, 48000.0, 24000.0, spread=0.0) == "regressed"
    assert compare.verdict(rate, 24000.0, 48000.0, spread=0.0) == "ok"
    err = next(m for m in metrics.SUITE_ONLY if m.name == "paper_rel_err")
    assert compare.verdict(err, 0.025, 0.030, spread=0.0) == "ok"
    assert compare.verdict(err, 0.025, 0.040, spread=0.0) == "regressed"


def test_compare_a_result_with_itself_is_all_ok(quick_runs):
    _, second, _ = quick_runs
    record = {"seed": 11, "workloads": second}
    rows = compare.compare_results(record, record)
    assert rows and all(r["verdict"] in ("ok", "unresolved") for r in rows)
    assert all(r["verdict"] == "ok" for r in rows if r["metric"] != "wall_s")
