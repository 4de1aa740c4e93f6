"""Metric and workload definitions — the source of truth that
``BENCHMARK.json`` mirrors (a self-test checks they agree).

Two clocks: **host** metrics are what a user of this Python package
waits for (noisy, bounded); **sim** metrics are what the modelled
hardware would take (deterministic for a seed, compared exactly).

Every run must report every ``END_TO_END`` metric on every workload, and
none may ever be 0, so that list holds only what all seven workloads
have.  The sim-clock and paper-accuracy metrics apply to some workloads
only (``SUITE_ONLY``); the suite prints and ``compare`` gates them with
the rest, and ``BENCHMARK.json`` lists them among the per-layer metrics.
"""

from __future__ import annotations

from typing import NamedTuple

from layers import LAYERS

__all__ = [
    "DEFAULT_SEED", "END_TO_END", "SUITE_ONLY", "PER_LAYER", "RUN_SECONDS",
    "WORKLOADS", "Metric", "SLO_P99_SIM_MS", "applicable", "benchmark_spec",
]

# How long one driver run measures (BENCHMARK.json's run_seconds).
RUN_SECONDS = 8

# The seed the committed baseline was recorded with (BENCHMARK.json has a
# fixed key set, so the default lives here and in the README).
DEFAULT_SEED = 20240527

# The serving latency limit: p99 over *offered* requests, sim clock.
SLO_P99_SIM_MS = 2.0


class Metric(NamedTuple):
    name: str
    unit: str
    better: str            # "lower" | "higher"
    bound: "float | None"  # share of the parent's median it may worsen by
    workloads: "tuple[str, ...] | None" = None  # None: every workload
    absolute: bool = False  # the bound is an absolute amount, not a share


WORKLOADS: dict[str, str] = {
    "codec_compress": (
        "direct repro.algorithms compress calls (bulk and small-block): the "
        "codec kernels do all the work, core memo and sim are bypassed"),
    "codec_decompress": (
        "the inverse calls on pre-compressed blobs: a matcher or table trick "
        "that speeds one direction and slows the other shows as one up, one down"),
    "pedal_ops": (
        "memo-hit PEDAL/naive/parallel round trips on bf2 and bf3: core, "
        "select, doca, dpu, sched and sim do the host work, codecs none"),
    "mpi_osu": (
        "OSU-shaped run_mpi jobs with repeated payloads: mpi, sim and every "
        "rank's PedalContext.init (ScratchPool.prewarm) dominate"),
    "serve_sweep": (
        "one ServeGateway per fixed rate with un-memoised 256 B DEFLATE "
        "requests: small-block codec cost plus throughput under a latency limit"),
    "cluster_fleet": (
        "12-worker sharded cluster with tiny cheap payloads, telemetry and a "
        "mid-run kill: cluster, serve, sched, sim and obs outweigh the codec"),
    "stream_paths": (
        "the three streaming implementations on one payload with identical "
        "containers: guard for collapsing stream/api, mpi/streaming, serve/streaming"),
}

_SIM = ("pedal_ops", "mpi_osu", "serve_sweep", "cluster_fleet", "stream_paths")
_SERVING = ("serve_sweep", "cluster_fleet")

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("ok_frac", "fraction", "higher", 0.001),
    Metric("compression_ratio", "x", "higher", 0.10),
)

# Exact-bounded on the sim clock: 1e-9 relative.  ``failed_frac`` is the
# complement of ``ok_frac`` (kept because 0 is its natural baseline).
SUITE_ONLY: tuple[Metric, ...] = (
    Metric("failed_frac", "fraction", "lower", 0.0),
    Metric("sim_s", "sim-s", "lower", 1e-9, _SIM),
    Metric("sim_goodput_mb_s", "MB/sim-s", "higher", 1e-9, _SERVING),
    Metric("sim_p50_latency_ms", "sim-ms", "lower", 1e-9, _SERVING),
    Metric("sim_p99_latency_ms", "sim-ms", "lower", 1e-9, _SERVING),
    Metric("sim_max_rate_within_slo_req_s", "req/sim-s", "higher", 0.0,
           ("serve_sweep",)),
    Metric("paper_rel_err", "fraction", "lower", 0.01, ("pedal_ops", "mpi_osu"),
           absolute=True),
)


def applicable(metric: Metric, workload: str) -> bool:
    return metric.workloads is None or workload in metric.workloads


def _per_layer() -> tuple[Metric, ...]:
    out: list[Metric] = []

    def add(name: str, unit: str, better: str) -> None:
        out.append(Metric(name, unit, better, None))

    for layer in LAYERS:
        add(f"{layer}.self_s", "s", "lower")
        add(f"{layer}.calls", "count", "lower")
    for algo in ("deflate", "zlib", "lz4", "ac", "sz3"):
        add(f"algorithms.{algo}.compress_mb_s", "MB/s", "higher")
        add(f"algorithms.{algo}.decompress_mb_s", "MB/s", "higher")
        add(f"algorithms.{algo}.ratio", "x", "higher")
    for algo in ("deflate", "lz4"):
        add(f"algorithms.{algo}.small_compress_us", "us", "lower")
        add(f"algorithms.{algo}.small_decompress_us", "us", "lower")
    add("core.init_ms", "ms", "lower")
    add("core.compress_us_per_op", "us", "lower")
    add("core.decompress_us_per_op", "us", "lower")
    add("core.naive_us_per_op", "us", "lower")
    add("core.parallel_ms_per_op", "ms", "lower")
    add("core.memo_hit_ratio", "fraction", "higher")
    add("select.decisions", "count", "lower")
    add("select.us_per_decision", "us", "lower")
    add("doca.jobs", "count", "lower")
    add("doca.sim_init_s", "sim-s", "lower")
    add("doca.sim_buffer_prep_s", "sim-s", "lower")
    add("dpu.cengine_sim_busy_s", "sim-s", "lower")
    add("dpu.soc_sim_busy_s", "sim-s", "lower")
    add("dpu.cengine_jobs", "count", "higher")
    add("dpu.soc_fallbacks", "count", "lower")
    add("sched.jobs", "count", "lower")
    add("sched.steals", "count", "lower")
    add("sched.retries", "count", "lower")
    add("sched.sim_queue_wait_s", "sim-s", "lower")
    add("sim.events", "count", "lower")
    add("sim.wall_us_per_event", "us", "lower")
    add("sim.processes", "count", "lower")
    add("mpi.jobs", "count", "lower")
    add("mpi.messages", "count", "lower")
    add("mpi.rank_init_ms", "ms", "lower")
    add("mpi.sim_wire_s", "sim-s", "lower")
    add("mpi.stream_chunks", "count", "lower")
    add("serve.offered", "count", "higher")
    add("serve.completed", "count", "higher")
    add("serve.shed", "count", "lower")
    add("serve.batches", "count", "lower")
    add("serve.mean_batch_msgs", "count", "higher")
    add("serve.submit_us_per_request", "us", "lower")
    add("serve.sim_peak_pending", "count", "lower")
    add("cluster.offered", "count", "higher")
    add("cluster.shed_global", "count", "lower")
    add("cluster.shed_shard", "count", "lower")
    add("cluster.failovers", "count", "lower")
    add("cluster.sim_recovery_ratio", "fraction", "higher")
    add("cluster.submit_us_per_request", "us", "lower")
    add("stream.compress_mb_s", "MB/s", "higher")
    add("stream.decompress_mb_s", "MB/s", "higher")
    add("stream.frames", "count", "lower")
    add("stream.framing_self_s", "s", "lower")
    add("obs.spans", "count", "lower")
    add("obs.scrapes", "count", "lower")
    add("obs.slo_alerts", "count", "lower")
    add("faults.kills", "count", "lower")
    add("util.scratch_prewarm_ms", "ms", "lower")
    add("bench.self_s", "s", "lower")
    add("bench.trace_overhead_ratio", "x", "lower")
    add("bench.layers_sum_ratio", "fraction", "lower")
    add("bench.wall_us_per_op", "us", "lower")
    add("bench.codec_wall_mb_s", "MB/s", "higher")
    add("bench.wall_iqr_frac", "fraction", "lower")
    add("bench.ops", "count", "higher")
    for metric in SUITE_ONLY:
        add(metric.name, metric.unit, metric.better)
    return tuple(out)


PER_LAYER: tuple[Metric, ...] = _per_layer()


def benchmark_spec() -> dict:
    """The contents of ``BENCHMARK.json`` (``run.py spec`` prints it)."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER],
    }
