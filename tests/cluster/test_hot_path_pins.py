"""Digest pins over two seeded serving runs.

Every simulated outcome of the serving stack is folded into one sha256
per run and compared with a hard-coded value:

* every completed response ``(req_id, device, engine, accepted_s,
  completed_s, batch_id, batch_size, payload)``;
* the shed and failed request ids;
* the cluster routing log and every gateway's batch routing log;
* every fleet snapshot's counters (and latency histogram totals);
* the SLO alerts.

Headline numbers (p99, goodput) and the bench's routing digests can
stay put while two simultaneous events swap places; these pins cannot.
A change to the serving hot path that reorders anything — a request,
a batch, a failover, a scrape — fails here.  The pins were recorded
before the path was optimised; a deliberate change in behaviour must
re-record them and say why.
"""

from __future__ import annotations

import hashlib

from repro.algorithms.deflate import deflate_compress
from repro.cluster import (ClusterConfig, ServeCluster, TenantProfile,
                           TrafficConfig, build_schedule, traffic_process)
from repro.dpu import make_device
from repro.dpu.specs import Algo, Direction
from repro.faults.workers import (WorkerKill, WorkerKillSchedule,
                                  worker_kill_process)
from repro.obs import FleetAggregator, SloMonitor, SloObjective
from repro.obs.aggregate import scrape_process
from repro.serve import BatchPolicy, ServeConfig, ServeGateway, ServeRequest
from repro.sim import Environment

CLUSTER_PIN = "f5e57a1ec4346354fcde4083e46b075deb25f5be8435e2bf4128e6fcbe6aad4e"
GATEWAY_PIN = "54d289812f2e9279f95fd97bdd3a48ccfba90a573a852fb140a0466ba367db8d"

_FLEET = tuple(("bf2", f"bf2-{i}") for i in range(8)) + tuple(
    ("bf3", f"bf3-{i}") for i in range(4))
_TENANTS = tuple(
    TenantProfile(
        name=f"reader-{i}", weight=3.0, direction=Direction.DECOMPRESS,
        algo=Algo.LZ4 if i % 2 else Algo.DEFLATE, size_dist="lognormal",
        median_bytes=16e3, sigma=0.7, slo_p99_s=0.002,
    ) for i in range(6)
) + tuple(
    TenantProfile(
        name=f"bulk-{i}", weight=1.0, direction=Direction.COMPRESS,
        algo=Algo.LZ4, size_dist="pareto", median_bytes=32e3,
        pareto_alpha=1.5, slo_p99_s=0.004,
    ) for i in range(2)
)
_RATE = 120_000
_ARRIVALS = 3000


class _Digest:
    """sha256 over a stream of reprs (floats by ``repr``: exact)."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            if isinstance(part, (bytes, bytearray)):
                part = hashlib.sha256(part).hexdigest()
            self._h.update(repr(part).encode())
            self._h.update(b"\x1f")
        self._h.update(b"\x1e")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _fold_tickets(digest: _Digest, tickets) -> None:
    for i, ticket in enumerate(tickets):
        if ticket.shed:
            digest.add("shed", i)
        elif not (ticket.done and ticket.event.ok):
            digest.add("failed", i)
        else:
            r = ticket.event.value
            digest.add("ok", r.req_id, r.direction.value, r.device, r.engine,
                       r.accepted_s, r.completed_s, r.batch_id, r.batch_size,
                       r.payload)


def _fold_registry(digest: _Digest, tag, registry) -> None:
    digest.add(tag, sorted(
        (name, c.value) for name, c in registry.counters.items()))
    digest.add(tag, sorted(
        (name, h.count, h.sum, tuple(h.counts))
        for name, h in registry.histograms.items()))


def cluster_run() -> "tuple[str, dict]":
    """The ``cluster_fleet`` shape, half length: 12 workers in 4 shards
    (failover on), a scrape every sim-ms into an SLO monitor, one kill."""
    duration_s = _ARRIVALS / _RATE
    schedule = build_schedule(TrafficConfig(
        rate_req_s=_RATE, duration_s=duration_s, seed=11, tenants=_TENANTS,
        diurnal_amplitude=0.3, actual_bytes=128))
    env = Environment()
    aggregator = FleetAggregator()
    cluster = ServeCluster(
        env, [make_device(env, kind, name=name) for kind, name in _FLEET],
        ClusterConfig(
            num_shards=4, global_max_pending=1024, shard_max_pending=64,
            serve=ServeConfig(batch=BatchPolicy(max_msgs=8),
                              router="capability")),
        aggregator=aggregator)
    monitor = SloMonitor([
        SloObjective(tenant=t.name, latency_target_s=t.slo_p99_s)
        for t in _TENANTS])
    snapshots = []

    def on_scrape(snapshot):
        snapshots.append(snapshot)
        monitor.observe(snapshot)

    env.process(scrape_process(env, aggregator, 1e-3,
                               group_by=("tenant", "shard"),
                               on_scrape=on_scrape))
    env.process(worker_kill_process(env, cluster, WorkerKillSchedule(
        [WorkerKill(at_s=0.5 * duration_s, worker="bf3-2")])))
    out = {}

    def driver(env):
        out["tickets"] = yield from traffic_process(env, schedule,
                                                    cluster.submit)
        yield from cluster.drain()

    env.run(until=env.process(driver(env)))

    digest = _Digest()
    _fold_tickets(digest, out["tickets"])
    for rec in cluster.routing_log:
        digest.add("route", *rec)
    digest.add("ring", cluster.shard_map.assignment_log)
    for name in cluster.shard_names:
        for rec in cluster.gateways[name].routing_log:
            digest.add("batch", name, *rec)
    for snapshot in snapshots:
        digest.add("scrape", snapshot.sim_now, snapshot.interval_s,
                   sorted(snapshot.counter_deltas.items()))
        _fold_registry(digest, "overall", snapshot.overall)
        for key in sorted(snapshot.groups):
            _fold_registry(digest, key, snapshot.groups[key])
    for record in monitor.as_records():
        digest.add("alert", sorted(record.items(), key=lambda kv: kv[0]))
    digest.add("end", env.now)
    stats = {
        "failovers": sum(
            rec[1] == "failover" for name in cluster.shard_names
            for rec in cluster.gateways[name].routing_log),
        "shed": cluster.shed,
        "scrapes": len(snapshots),
        "alerts": len(monitor.alerts),
        "completed": cluster.completed,
    }
    return digest.hexdigest(), stats


def _blocks() -> "list[bytes]":
    """Sixteen 256 B blocks of mildly repetitive text."""
    blocks = []
    for i in range(16):
        words = b" ".join(b"serve%03d-%d" % (i * 7 + j, j % 5)
                          for j in range(40))
        blocks.append((words * 2)[:256])
    return blocks


def gateway_run() -> "tuple[str, dict]":
    """One capability-routed gateway over 2x BF-2 + 1x BF-3, 256 B
    DEFLATE requests in both directions, at a comfortable rate and at
    an overload rate that sheds."""
    raw = _blocks()
    packed = [deflate_compress(block) for block in raw]
    digest = _Digest()
    stats = {"shed": 0, "completed": 0}
    for rate in (24_000, 96_000):
        schedule = build_schedule(TrafficConfig(
            rate_req_s=rate, duration_s=400 / rate, seed=5,
            diurnal_amplitude=0.0, tenants=(TenantProfile("sweep"),)))
        times = [a.t_s for a in schedule.arrivals]
        env = Environment()
        gateway = ServeGateway(
            env, [make_device(env, kind) for kind in ("bf2", "bf2", "bf3")],
            ServeConfig(batch=BatchPolicy(max_msgs=8), router="capability",
                        max_pending=64))
        tickets = []

        def driver(env):
            for i, at in enumerate(times):
                delay = at - env.now
                if delay > 0.0:
                    yield env.timeout(delay)
                pick = (i * 7) % len(raw)
                if (i * 13) % 5 < 2:
                    request = ServeRequest(Direction.DECOMPRESS, packed[pick],
                                           sim_bytes=64 * 1024, req_id=i)
                else:
                    request = ServeRequest(Direction.COMPRESS, raw[pick],
                                           sim_bytes=64 * 1024, req_id=i)
                tickets.append(gateway.submit(request))
            yield from gateway.drain()

        env.run(until=env.process(driver(env)))
        digest.add("rate", rate)
        _fold_tickets(digest, tickets)
        for rec in gateway.routing_log:
            digest.add("batch", *rec)
        digest.add("end", env.now, gateway.admission.peak_pending)
        stats["shed"] += gateway.admission.shed
        stats["completed"] += gateway.completed
    return digest.hexdigest(), stats


def test_cluster_run_is_pinned():
    digest, stats = cluster_run()
    # The run must exercise what it pins: a failover, scrapes, alerts.
    assert stats["failovers"] > 0, stats
    assert stats["scrapes"] >= 20, stats
    assert stats["alerts"] > 0, stats
    assert stats["completed"] > 0, stats
    assert digest == CLUSTER_PIN, stats


def test_gateway_run_is_pinned():
    digest, stats = gateway_run()
    assert stats["shed"] > 0, stats
    assert stats["completed"] > 0, stats
    assert digest == GATEWAY_PIN, stats
