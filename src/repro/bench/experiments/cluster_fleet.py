"""``cluster`` — fleet-scale sharded serving under 10-100x PR 4 load.

Not a paper figure: this experiment characterizes the cluster tentpole
(:mod:`repro.cluster`).  A seeded open-loop traffic schedule (Poisson
arrivals with a diurnal swing, heavy-tailed lognormal/Pareto sizes,
mixed compress/decompress tenants) drives a 12-worker, 4-shard cluster
at offered loads from 10x the single-gateway sweep's lowest point up to
100x its highest (2.4 M req/s), and one dedicated run kills a whole
worker mid-stream to measure failover recovery.

Expected shape (asserted by the BENCH_PR9 regression gates):

* goodput rises with offered load, then *saturates* — admission (the
  global budget plus per-shard bounds) sheds the excess instead of
  letting queues collapse the cluster;
* per-shard peak pending never exceeds the shard budget, even at the
  100x point;
* the mid-run worker kill recovers >= 90 % of pre-kill goodput (the
  shard's surviving replicas absorb its traffic via in-shard failover,
  and the shard map heals only when a whole shard dies);
* routing is bit-for-bit deterministic: the BLAKE2b digest over every
  shard lookup, batch dispatch, failover re-pick, and shard-map heal
  is pinned exactly.
"""

from __future__ import annotations

import hashlib

from repro.bench.harness import ExperimentResult, register_experiment
from repro.cluster import (
    ClusterConfig,
    ServeCluster,
    TenantProfile,
    TrafficConfig,
    build_schedule,
    traffic_process,
)
from repro.dpu.device import make_device
from repro.dpu.specs import Algo, Direction
from repro.errors import NoLatencySamplesError
from repro.faults.workers import WorkerKill, WorkerKillSchedule, worker_kill_process
from repro.obs import FleetAggregator
from repro.obs.aggregate import scrape_process
from repro.obs.slo import SloMonitor, SloObjective
from repro.serve import BatchPolicy, ServeConfig
from repro.sim import Environment

__all__ = ["run", "run_cluster_point", "CLUSTER_LOADS_REQ_S", "FAILOVER_LOAD_REQ_S"]

# 12 workers over 4 shards: 8 BF-2 (compress-capable) + 4 BF-3
# (decompress-only engine) — capability_spread gives every shard
# 2x BF-2 + 1x BF-3.
_FLEET = tuple(
    ("bf2", f"bf2-{i}") for i in range(8)
) + tuple(
    ("bf3", f"bf3-{i}") for i in range(4)
)
_NUM_SHARDS = 4
_SHARD_MAX_PENDING = 64
_GLOBAL_MAX_PENDING = 1024
_BATCH_MSGS = 8
_SEED = 20260808

# PR 4's single-gateway sweep ran 2k..24k req/s; this one spans 10x its
# lowest to 100x its highest point.
_PR4_LOW, _PR4_HIGH = 2_000, 24_000
CLUSTER_LOADS_REQ_S = (
    10 * _PR4_LOW,      # 20k
    5 * _PR4_HIGH,      # 120k
    20 * _PR4_HIGH,     # 480k
    50 * _PR4_HIGH,     # 1.2M
    100 * _PR4_HIGH,    # 2.4M
)
# Bound the arrival count per point so the 100x point stays tractable.
_TARGET_ARRIVALS = 24_000
_MAX_DURATION_S = 0.02

# The failover run offers a load the fleet still covers with one worker
# dead, so recovery measures the failover machinery, not lost capacity.
FAILOVER_LOAD_REQ_S = 60_000
_FAILOVER_DURATION_S = 0.03
_FAILOVER_KILL_AT_S = 0.015
_FAILOVER_VICTIM = "bf2-0"
_SCRAPE_INTERVAL_S = 1e-3

# Many tenant keys (not just 3 profiles' worth) so the consistent hash
# spreads load across all shards; profiles alternate over the mix.
# SLO targets sit just above the healthy-state latency (~1-2 ms at the
# failover load) so the kill's latency spike trips a deterministic
# burn-rate alert stream — the monitor is exercised, not decorative.
_TENANTS = tuple(
    TenantProfile(
        name=f"bulk-{i}", weight=2.0, direction=Direction.COMPRESS,
        size_dist="pareto", median_bytes=32e3, pareto_alpha=1.5,
        slo_p99_s=0.004,
    ) for i in range(4)
) + tuple(
    TenantProfile(
        name=f"reader-{i}", weight=3.0, direction=Direction.DECOMPRESS,
        size_dist="lognormal", median_bytes=16e3, sigma=0.7,
        slo_p99_s=0.002,
    ) for i in range(4)
) + (
    TenantProfile(
        name="restore", weight=1.0, direction=Direction.DECOMPRESS,
        size_dist="pareto", median_bytes=128e3, pareto_alpha=1.2,
        slo_p99_s=0.008,
    ),
)

COLUMNS = [
    "offered_req_s", "arrivals", "completed", "shed_global", "shed_shard",
    "goodput_mb_s", "p99_ms", "sample_count", "max_shard_pending",
    "failovers", "epoch",
]


def _build_cluster(env: Environment,
                   aggregator: "FleetAggregator | None" = None,
                   ) -> ServeCluster:
    devices = [make_device(env, kind, name=name) for kind, name in _FLEET]
    return ServeCluster(
        env,
        devices,
        ClusterConfig(
            num_shards=_NUM_SHARDS,
            global_max_pending=_GLOBAL_MAX_PENDING,
            shard_max_pending=_SHARD_MAX_PENDING,
            serve=ServeConfig(
                batch=BatchPolicy(max_msgs=_BATCH_MSGS),
                router="capability",
            ),
        ),
        aggregator=aggregator,
    )


def _routing_digest(cluster: ServeCluster) -> str:
    """BLAKE2b over every routing decision the run made, in a canonical
    order: cluster shard lookups, shard-map heals, then each shard
    gateway's dispatch/failover picks (shard-name order)."""
    h = hashlib.blake2b(digest_size=16)
    for rec in cluster.routing_log:
        h.update(repr(rec).encode())
    for rec in cluster.shard_map.assignment_log:
        h.update(repr(rec).encode())
    for name in cluster.shard_names:
        h.update(name.encode())
        for rec in cluster.gateways[name].routing_log:
            h.update(repr(rec).encode())
    return h.hexdigest()


def _failover_count(cluster: ServeCluster) -> int:
    return sum(
        1
        for name in cluster.shard_names
        for rec in cluster.gateways[name].routing_log
        if rec[1] == "failover"
    )


def _p99_or_none(cluster: ServeCluster) -> "float | None":
    try:
        return cluster.latency_percentile(99)
    except NoLatencySamplesError:
        return None


def run_cluster_point(
    offered_req_s: float,
    duration_s: "float | None" = None,
    seed: int = _SEED,
    kill: "WorkerKillSchedule | None" = None,
    with_slo: bool = False,
    diurnal_amplitude: float = 0.3,
    actual_bytes: int = TrafficConfig.actual_bytes,
) -> dict:
    """One deterministic cluster run at ``offered_req_s``.

    ``goodput_bytes_s`` is measured over the *steady-state window* —
    from 25 % of the arrival span (past the cold ramp) to the last
    arrival (before the drain tail) — so points with different
    durations compare like-for-like; the whole-run number (ramp and
    drain included) is kept as ``overall_goodput_bytes_s``.

    With ``kill`` set, the record also splits goodput at the first
    kill instant (``pre/post_kill_goodput_bytes_s`` and their ratio).
    ``with_slo`` attaches the fleet aggregator, a 1 ms scrape loop
    grouped by (tenant, shard), and the burn-rate monitor fed from the
    tenants' p99 objectives — telemetry reads never move the sim
    clock, so it only adds fields, never changes numbers.
    """
    if duration_s is None:
        duration_s = min(_MAX_DURATION_S, _TARGET_ARRIVALS / offered_req_s)
    env = Environment()
    aggregator = FleetAggregator() if with_slo else None
    cluster = _build_cluster(env, aggregator=aggregator)
    schedule = build_schedule(TrafficConfig(
        rate_req_s=offered_req_s,
        duration_s=duration_s,
        seed=seed,
        tenants=_TENANTS,
        diurnal_amplitude=diurnal_amplitude,
        actual_bytes=actual_bytes,
    ))

    monitor = None
    if with_slo:
        monitor = SloMonitor([
            SloObjective(tenant=t.name, latency_target_s=t.slo_p99_s)
            for t in _TENANTS if t.slo_p99_s is not None
        ])
        env.process(scrape_process(
            env, aggregator, _SCRAPE_INTERVAL_S,
            group_by=("tenant", "shard"), on_scrape=monitor.observe,
        ))

    def _mark() -> "tuple[float, float, int]":
        return (env.now, cluster.completed_sim_bytes, cluster.completed)

    kill_marks: "list[tuple[float, float, int]]" = []
    if kill is not None:
        def killer(env):
            for k in kill:
                delay = k.at_s - env.now
                if delay > 0.0:
                    yield env.timeout(delay)
                kill_marks.append(_mark())
                cluster.kill_worker(k.worker)
        env.process(killer(env))

    # Steady-state window probes (reads only — determinism unaffected).
    warmup_s = 0.25 * duration_s
    marks: "dict[str, tuple[float, float, int]]" = {}

    def warmup_probe(env):
        yield env.timeout(warmup_s)
        marks["warm"] = _mark()
    env.process(warmup_probe(env))

    def driver(env):
        yield from traffic_process(env, schedule, cluster.submit)
        marks["arrivals_end"] = _mark()
        yield from cluster.drain()

    env.run(until=env.process(driver(env)))
    elapsed = env.now

    warm_t, warm_bytes, warm_n = marks["warm"]
    end_t, end_bytes, end_n = marks["arrivals_end"]
    steady_span = end_t - warm_t
    steady_goodput = (
        (end_bytes - warm_bytes) / steady_span if steady_span > 0.0 else 0.0
    )
    record = {
        "offered_req_s": offered_req_s,
        "duration_s": duration_s,
        "arrivals": len(schedule),
        "completed": cluster.completed,
        "shed_global": cluster.shed_global,
        "shed_shard": cluster.shed_shard,
        "goodput_bytes_s": steady_goodput,
        "overall_goodput_bytes_s": (
            cluster.completed_sim_bytes / elapsed if elapsed > 0.0 else 0.0
        ),
        "p99_s": _p99_or_none(cluster),
        "sample_count": cluster.sample_count,
        "peak_shard_pending": cluster.peak_shard_pending(),
        "max_shard_pending": max(cluster.peak_shard_pending().values()),
        "pending_after_drain": cluster.pending,
        "failovers": _failover_count(cluster),
        "epoch": cluster.shard_map.epoch,
        "makespan_s": elapsed,
        "routing_digest": _routing_digest(cluster),
    }
    if kill is not None and kill_marks:
        # Pre/post windows exclude the cold ramp (before the warmup
        # probe) and the drain tail (after the last arrival): the ratio
        # should measure failover, not window artifacts.  The gated
        # recovery ratio compares completed-request *rates* — byte
        # rates over heavy-tailed sizes are dominated by which window a
        # few huge objects land in, which is tail luck, not failover.
        kill_at, bytes_at_kill, n_at_kill = kill_marks[0]
        pre_span = kill_at - warm_t
        post_span = end_t - kill_at
        pre_bytes = (
            (bytes_at_kill - warm_bytes) / pre_span if pre_span > 0.0 else 0.0
        )
        post_bytes = (
            (end_bytes - bytes_at_kill) / post_span if post_span > 0.0 else 0.0
        )
        pre_rate = (n_at_kill - warm_n) / pre_span if pre_span > 0.0 else 0.0
        post_rate = (end_n - n_at_kill) / post_span if post_span > 0.0 else 0.0
        record["kill_at_s"] = kill_at
        record["killed_workers"] = [k.worker for k in kill]
        record["pre_kill_goodput_bytes_s"] = pre_bytes
        record["post_kill_goodput_bytes_s"] = post_bytes
        record["pre_kill_completed_req_s"] = pre_rate
        record["post_kill_completed_req_s"] = post_rate
        record["recovery_ratio"] = (
            post_rate / pre_rate if pre_rate > 0.0 else 0.0
        )
    if monitor is not None:
        record["slo_alerts"] = len(monitor.alerts)
        record["slo_alerts_by_severity"] = {
            sev: sum(1 for a in monitor.alerts if a.severity == sev)
            for sev in sorted({a.severity for a in monitor.alerts})
        }
        record["scrapes"] = aggregator.scrapes
        record["scrape_groups"] = (
            len(aggregator.latest().groups) if aggregator.latest() else 0
        )
    return record


def run_failover_point(
    seed: int = _SEED, actual_bytes: int = TrafficConfig.actual_bytes,
) -> dict:
    """The dedicated mid-run worker-kill recovery measurement.

    Runs at a flat (no-diurnal) rate the fleet still covers with one
    worker dead, so the pre/post goodput ratio isolates the failover
    machinery rather than offered-load swings or lost raw capacity.
    """
    return run_cluster_point(
        FAILOVER_LOAD_REQ_S,
        duration_s=_FAILOVER_DURATION_S,
        seed=seed,
        kill=WorkerKillSchedule(
            [WorkerKill(_FAILOVER_KILL_AT_S, _FAILOVER_VICTIM)]
        ),
        with_slo=True,
        diurnal_amplitude=0.0,
        actual_bytes=actual_bytes,
    )


@register_experiment("cluster")
def run(
    loads_req_s: "tuple[float, ...]" = CLUSTER_LOADS_REQ_S,
    actual_bytes: int = TrafficConfig.actual_bytes,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="cluster",
        title=(
            f"cluster: {len(_FLEET)} workers / {_NUM_SHARDS} shards, "
            f"offered load 10-100x PR 4 sweep, "
            f"global/shard admission {_GLOBAL_MAX_PENDING}/{_SHARD_MAX_PENDING}"
        ),
        columns=COLUMNS,
    )
    records = []
    for load in loads_req_s:
        rec = run_cluster_point(load, actual_bytes=actual_bytes)
        records.append(rec)
        result.rows.append({
            "offered_req_s": load,
            "arrivals": rec["arrivals"],
            "completed": rec["completed"],
            "shed_global": rec["shed_global"],
            "shed_shard": rec["shed_shard"],
            "goodput_mb_s": rec["goodput_bytes_s"] / 1e6,
            "p99_ms": (
                rec["p99_s"] * 1e3 if rec["p99_s"] is not None else float("nan")
            ),
            "sample_count": rec["sample_count"],
            "max_shard_pending": rec["max_shard_pending"],
            "failovers": rec["failovers"],
            "epoch": rec["epoch"],
        })
    fo = run_failover_point(actual_bytes=actual_bytes)
    result.rows.append({
        "offered_req_s": fo["offered_req_s"],
        "arrivals": fo["arrivals"],
        "completed": fo["completed"],
        "shed_global": fo["shed_global"],
        "shed_shard": fo["shed_shard"],
        "goodput_mb_s": fo["goodput_bytes_s"] / 1e6,
        "p99_ms": (
            fo["p99_s"] * 1e3 if fo["p99_s"] is not None else float("nan")
        ),
        "sample_count": fo["sample_count"],
        "max_shard_pending": fo["max_shard_pending"],
        "failovers": fo["failovers"],
        "epoch": fo["epoch"],
    })

    peak = max(r["goodput_bytes_s"] for r in records)
    result.headlines["goodput_at_100x_vs_peak"] = (
        records[-1]["goodput_bytes_s"] / peak if peak > 0.0 else 0.0
    )
    result.headlines["failover_recovery_ratio"] = fo["recovery_ratio"]
    result.headlines["max_shard_pending_overload"] = float(
        max(r["max_shard_pending"] for r in records)
    )
    result.headlines["slo_alerts_failover_run"] = float(fo["slo_alerts"])
    result.notes.append(
        "goodput counts nominal uncompressed bytes of completed requests; "
        "the failover row kills one worker mid-run and recovers via "
        "in-shard re-dispatch (recovery ratio in headlines)"
    )
    return result
