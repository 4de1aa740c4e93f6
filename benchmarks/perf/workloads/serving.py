"""``serve_sweep`` and ``cluster_fleet``: the two open-loop serving workloads.

Both are open-loop *on the simulated clock*: arrival instants are
precomputed by :func:`repro.cluster.traffic.build_schedule`, the driver
process sleeps until each instant and submits, and latency is timed from
that scheduled instant (``accepted_s``), so generator lag is zero by
construction.  A shed or failed request counts as missing the latency
limit.

* ``serve_sweep`` — uniform 256 B DEFLATE requests, un-memoised, at four
  fixed rates: host time is small-block DEFLATE; the sim side is the
  batching/admission story and yields throughput under a latency limit.
* ``cluster_fleet`` — the same stack sharded 12 ways with tiny cheap
  payloads, telemetry scraping and one mid-run worker kill, so
  ``cluster`` + ``serve`` + ``sched`` + ``sim`` + ``obs`` outweigh the codec.
"""

from __future__ import annotations

import math
import zlib

from repro.algorithms.deflate import deflate_compress
from repro.algorithms.lz4 import lz4_compress, lz4_decompress
from repro.cluster import (ClusterConfig, ServeCluster, TenantProfile,
                           TrafficConfig, build_schedule, traffic_process)
from repro.dpu.device import make_device
from repro.dpu.specs import Algo, Direction
from repro.faults.workers import (WorkerKill, WorkerKillSchedule,
                                  worker_kill_process)
from repro.obs import FleetAggregator, SloMonitor, SloObjective, merge_registries
from repro.obs.aggregate import scrape_process
from repro.serve import BatchPolicy, ServeConfig, ServeGateway, ServeRequest
from repro.sim import Environment

from metrics import SLO_P99_SIM_MS
from workloads.base import RepAccount, Workload, device_counts, digest_of

__all__ = ["ServeSweep", "ClusterFleet", "percentile"]

KIB = 1024
_XML = "silesia/xml"


def percentile(sorted_values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) of a sorted list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _outcomes(tickets: list) -> "tuple[list, int, int]":
    """``(responses, shed, failed)`` of a drained run's tickets."""
    responses, shed, failed = [], 0, 0
    for ticket in tickets:
        if ticket.shed:
            shed += 1
        elif ticket.done and ticket.event.ok:
            responses.append(ticket.event.value)
        else:
            failed += 1
    return responses, shed, failed


def _window_goodput(completions: "list[tuple[float, float]]", t0: float,
                    t1: float) -> float:
    """Nominal bytes completed in ``(t0, t1]`` per sim second."""
    span = t1 - t0
    done = sum(nbytes for at, nbytes in completions if t0 < at <= t1)
    return done / span if span > 0.0 else 0.0


# ---------------------------------------------------------------------------
# serve_sweep
# ---------------------------------------------------------------------------

_RATES_REQ_S = (12_000, 24_000, 48_000, 96_000)
_REFERENCE_RATE = 24_000
_FLEET = ("bf2", "bf2", "bf3")
_NOMINAL = 64 * KIB
_MAX_SHED_FRAC = 0.01


class ServeSweep(Workload):
    name = "serve_sweep"

    def __init__(self, inputs, quick=False) -> None:
        super().__init__(inputs, quick)
        arrivals = 48 if quick else 400
        self.rates = _RATES_REQ_S[1:3] if quick else _RATES_REQ_S
        self.raw = inputs.windows("serve.pool", _XML, 256 * KIB, 64, 256)
        self.packed = [deflate_compress(block) for block in self.raw]
        # Per rate: Poisson arrival instants, and per arrival a seeded
        # direction (50/50) and pool window.
        self.plans = []
        for rate in self.rates:
            schedule = build_schedule(TrafficConfig(
                rate_req_s=rate, duration_s=arrivals / rate,
                seed=inputs.seed, diurnal_amplitude=0.0,
                tenants=(TenantProfile("sweep"),)))
            times = [a.t_s for a in schedule.arrivals]
            inputs.note(f"serve.times.{rate}", times)
            compress = inputs.choices(f"serve.direction.{rate}", 2, len(times))
            picks = inputs.choices(f"serve.pick.{rate}", len(self.raw), len(times))
            self.plans.append((rate, times, compress, picks))

    def _run_rate(self, rate, times, compress, picks) -> dict:
        env = Environment()
        gateway = ServeGateway(
            env, [make_device(env, kind) for kind in _FLEET],
            ServeConfig(batch=BatchPolicy(max_msgs=8), router="capability",
                        max_pending=64))
        tickets = []

        def driver(env):
            for i, at in enumerate(times):
                delay = at - env.now
                if delay > 0.0:
                    yield env.timeout(delay)
                if compress[i]:
                    request = ServeRequest(
                        Direction.COMPRESS, self.raw[picks[i]],
                        sim_bytes=_NOMINAL, req_id=i)
                else:
                    request = ServeRequest(
                        Direction.DECOMPRESS, self.packed[picks[i]],
                        sim_bytes=_NOMINAL, req_id=i)
                tickets.append(gateway.submit(request))
            yield from gateway.drain()

        env.run(until=env.process(driver(env)))
        return {"rate": rate, "env": env, "gateway": gateway, "tickets": tickets}

    def rep(self) -> list:
        runs = []
        for plan in self.plans:
            self.mark(f"rate:{plan[0]}")
            runs.append(self._run_rate(*plan))
        return runs

    def account(self, runs: list) -> RepAccount:
        raw = packed = ops = refused = 0
        sim: dict[str, float] = {"sim_s": 0.0, "sim_max_rate_within_slo_req_s": 0.0}
        counts = {"serve.offered": 0.0, "serve.completed": 0.0, "serve.shed": 0.0,
                  "serve.peak_pending": 0.0, "serve.batched_msgs": 0.0}
        digest_parts: list = []
        devices = []
        for run, (_rate, times, _compress, picks) in zip(runs, self.plans):
            responses, shed, failed = _outcomes(run["tickets"])
            offered = len(run["tickets"])
            ops += offered
            refused += shed + failed
            latencies = sorted(r.latency_s for r in responses)
            # p99 over *offered* requests: a refused request never meets
            # the limit, so it sorts as +inf.
            offered_p99 = percentile(
                latencies + [math.inf] * (shed + failed), 99.0)
            within = (offered_p99 * 1e3 <= SLO_P99_SIM_MS
                      and (shed + failed) <= _MAX_SHED_FRAC * offered)
            if within:
                sim["sim_max_rate_within_slo_req_s"] = max(
                    sim["sim_max_rate_within_slo_req_s"], float(run["rate"]))
            sim["sim_s"] += run["env"].now
            if run["rate"] == _REFERENCE_RATE:
                completions = [(r.completed_s, float(_NOMINAL)) for r in responses]
                sim["sim_goodput_mb_s"] = _window_goodput(
                    completions, 0.25 * times[-1], times[-1]) / 1e6
                sim["sim_p50_latency_ms"] = percentile(latencies, 50.0) * 1e3
                sim["sim_p99_latency_ms"] = percentile(latencies, 99.0) * 1e3
                sim["p99_samples"] = float(len(latencies))
            gateway = run["gateway"]
            counts["serve.offered"] += gateway.submitted
            counts["serve.completed"] += gateway.completed
            counts["serve.shed"] += gateway.admission.shed
            counts["serve.peak_pending"] = max(
                counts["serve.peak_pending"], gateway.admission.peak_pending)
            counts["serve.batched_msgs"] += sum(
                w.requests_served for w in gateway.workers)
            devices += [w.device for w in gateway.workers]
            digest_parts += [r.payload for r in responses]
            digest_parts += [r.completed_s for r in responses]
            # Every completed request ran one real DEFLATE stream.
            raw += sum(len(self.raw[picks[r.req_id]]) for r in responses)
            packed += sum(len(self.packed[picks[r.req_id]]) for r in responses)
        counts.update(device_counts(devices))
        return RepAccount(ops=ops, refused=refused, raw_bytes=raw,
                          packed_bytes=packed, digest=digest_of(digest_parts),
                          sim=sim, counts=counts)

    def verify(self, runs: list) -> list[str]:
        failures = []
        for run, (rate, _times, compress, picks) in zip(runs, self.plans):
            responses, shed, failed = _outcomes(run["tickets"])
            gateway = run["gateway"]
            if len(run["tickets"]) != len(responses) + shed + failed:
                failures.append(f"serve_sweep@{rate}: offered != completed+shed+failed")
            if gateway.admission.pending != 0 or gateway.completed != len(responses):
                failures.append(
                    f"serve_sweep@{rate}: pending {gateway.admission.pending} "
                    f"after drain, gateway completed {gateway.completed}")
            for response in responses:
                i = response.req_id
                block = self.raw[picks[i]]
                if compress[i]:
                    ok = zlib.decompress(response.payload, -15) == block
                else:
                    ok = response.payload == block
                if not ok:
                    failures.append(
                        f"serve_sweep@{rate}: response {i} does not decode "
                        "to its request payload")
        return failures


# ---------------------------------------------------------------------------
# cluster_fleet
# ---------------------------------------------------------------------------

_CLUSTER_FLEET = tuple(("bf2", f"bf2-{i}") for i in range(8)) + tuple(
    ("bf3", f"bf3-{i}") for i in range(4))
_CLUSTER_RATE = 120_000
_SCRAPE_INTERVAL_S = 1e-3
# Decompress-heavy readers (LZ4 and DEFLATE alternating) plus two bulk
# LZ4 writers; many tenant keys so the consistent hash uses every shard.
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


class ClusterFleet(Workload):
    name = "cluster_fleet"

    def __init__(self, inputs, quick=False) -> None:
        super().__init__(inputs, quick)
        arrivals = 400 if quick else 6000
        self.duration_s = arrivals / _CLUSTER_RATE
        self.schedule = build_schedule(TrafficConfig(
            rate_req_s=_CLUSTER_RATE, duration_s=self.duration_s,
            seed=inputs.seed, tenants=_TENANTS, diurnal_amplitude=0.3,
            actual_bytes=128))
        inputs.note("cluster.times", [a.t_s for a in self.schedule.arrivals])
        inputs.note("cluster.sizes", [a.sim_bytes for a in self.schedule.arrivals])
        # One seeded mid-run kill (victim and instant drawn from the seed,
        # kept inside the middle half of the run so both sides have a rate).
        seeded = WorkerKillSchedule.seeded(
            [name for _kind, name in _CLUSTER_FLEET], inputs.seed,
            0.5 * self.duration_s, kills=1)
        self.kills = WorkerKillSchedule(
            WorkerKill(at_s=0.25 * self.duration_s + k.at_s, worker=k.worker)
            for k in seeded)

    def rep(self) -> dict:
        env = Environment()
        aggregator = FleetAggregator()
        cluster = ServeCluster(
            env, [make_device(env, kind, name=name)
                  for kind, name in _CLUSTER_FLEET],
            ClusterConfig(
                num_shards=4, global_max_pending=1024, shard_max_pending=64,
                serve=ServeConfig(batch=BatchPolicy(max_msgs=8),
                                  router="capability")),
            aggregator=aggregator)
        monitor = SloMonitor([
            SloObjective(tenant=t.name, latency_target_s=t.slo_p99_s)
            for t in _TENANTS])
        env.process(scrape_process(
            env, aggregator, _SCRAPE_INTERVAL_S, group_by=("tenant", "shard"),
            on_scrape=monitor.observe))
        env.process(worker_kill_process(env, cluster, self.kills))
        out: dict = {"env": env, "cluster": cluster, "aggregator": aggregator,
                     "monitor": monitor}

        def driver(env):
            out["tickets"] = yield from traffic_process(
                env, self.schedule, cluster.submit)
            yield from cluster.drain()

        env.run(until=env.process(driver(env)))
        return out

    def account(self, out: dict) -> RepAccount:
        cluster: ServeCluster = out["cluster"]
        responses, shed, failed = _outcomes(out["tickets"])
        arrivals = self.schedule.arrivals
        completions = [(r.completed_s, arrivals[r.req_id].sim_bytes)
                       for r in responses]
        latencies = sorted(r.latency_s for r in responses)
        t_warm, t_end = 0.25 * self.duration_s, arrivals[-1].t_s
        kill_at = self.kills.kills[0].at_s

        def rate(t0: float, t1: float) -> float:
            n = sum(1 for at, _ in completions if t0 < at <= t1)
            return n / (t1 - t0) if t1 > t0 else 0.0

        pre, post = rate(t_warm, kill_at), rate(kill_at, t_end)
        raw = packed = 0
        for ticket in out["tickets"]:
            if ticket.shed or not (ticket.done and ticket.event.ok):
                continue
            sizes = (len(ticket.request.payload), len(ticket.event.value.payload))
            if ticket.request.direction is Direction.DECOMPRESS:
                packed, raw = packed + sizes[0], raw + sizes[1]
            else:
                raw, packed = raw + sizes[0], packed + sizes[1]
        gateways = [cluster.gateways[name] for name in cluster.shard_names]
        fleet = merge_registries(out["aggregator"].members)
        counts = {
            "cluster.offered": float(cluster.submitted),
            "cluster.shed_global": float(cluster.shed_global),
            "cluster.shed_shard": float(cluster.shed_shard),
            "cluster.failovers": float(sum(
                1 for g in gateways for rec in g.routing_log
                if rec[1] == "failover")),
            "cluster.recovery_ratio": post / pre if pre > 0.0 else 0.0,
            "serve.offered": float(sum(g.submitted for g in gateways)),
            "serve.completed": float(cluster.completed),
            "serve.shed": float(sum(g.admission.shed for g in gateways)),
            "serve.peak_pending": float(max(cluster.peak_shard_pending().values())),
            "serve.batched_msgs": float(sum(
                w.requests_served for w in cluster.workers)),
            "obs.scrapes": float(out["aggregator"].scrapes),
            "obs.slo_alerts": float(len(out["monitor"].alerts)),
            "faults.kills": float(sum(not w.alive for w in cluster.workers)),
            **{name: fleet.counters[name].value
               for name in ("sched.jobs", "sched.soc_steals", "sched.retries")
               if name in fleet.counters},
            **device_counts(w.device for w in cluster.workers),
        }
        return RepAccount(
            ops=len(out["tickets"]), refused=shed + failed,
            raw_bytes=raw, packed_bytes=packed,
            digest=digest_of([
                *(r.payload for r in responses),
                *(r.completed_s for r in responses)]),
            sim={
                "sim_s": out["env"].now,
                "sim_goodput_mb_s": _window_goodput(
                    completions, t_warm, t_end) / 1e6,
                "sim_p50_latency_ms": percentile(latencies, 50.0) * 1e3,
                "sim_p99_latency_ms": percentile(latencies, 99.0) * 1e3,
                "p99_samples": float(len(latencies)),
            },
            counts=counts)

    def verify(self, out: dict) -> list[str]:
        cluster: ServeCluster = out["cluster"]
        responses, shed, failed = _outcomes(out["tickets"])
        failures = []
        if len(out["tickets"]) != len(responses) + shed + failed:
            failures.append("cluster_fleet: offered != completed+shed+failed")
        if cluster.pending != 0 or cluster.completed != len(responses):
            failures.append(
                f"cluster_fleet: pending {cluster.pending} after drain, "
                f"cluster completed {cluster.completed}")
        if shed != cluster.shed:
            failures.append("cluster_fleet: shed tickets != admission sheds")
        # The pools hold a handful of distinct payloads: check each
        # distinct (request, response) pairing once.
        checked: dict[tuple[int, bytes], bool] = {}
        for ticket in out["tickets"]:
            if ticket.shed or not (ticket.done and ticket.event.ok):
                continue
            request, response = ticket.request, ticket.event.value
            key = (id(request.payload), response.payload)
            if key not in checked:
                checked[key] = _pair_ok(request, response.payload)
            if not checked[key]:
                failures.append(
                    f"cluster_fleet: response {response.req_id} does not "
                    "match its request payload")
        return failures


def _pair_ok(request: ServeRequest, output: bytes) -> bool:
    if request.direction is Direction.COMPRESS:
        return lz4_decompress(output) == request.payload
    if request.algo is Algo.DEFLATE:
        return zlib.decompress(request.payload, -15) == output
    # LZ4 has no stdlib decoder: check through the (deterministic) encoder.
    return lz4_compress(output) == request.payload
