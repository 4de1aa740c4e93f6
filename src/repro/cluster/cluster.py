"""Fleet-scale sharded serving: N gateways over M workers, with failover.

:class:`ServeCluster` is the paper's end state scaled out: instead of
one :class:`~repro.serve.ServeGateway` over a handful of DPUs, the
device fleet is partitioned (:mod:`repro.cluster.placement`) into S
shards, each fronted by its own gateway whose workers are the shard's
replicas.  Tenants map to shards through the consistent-hash
:class:`~repro.cluster.shard.ShardMap`, so adding or losing a shard
moves only ~K/S of the tenant space.

**Admission is split in two.**  A *global* controller bounds total
pending work across the cluster (protecting the host-side submit path),
and each shard's gateway keeps its own *per-shard* bound (protecting
one shard's replicas from a hot tenant).  A request must clear both: a
global refusal sheds immediately; a shard refusal releases the global
slot it briefly held and sheds.  Global slots are released exactly once
per admitted request, on the request event's completion — success *or*
failure — via an event callback, so worker death cannot leak the global
budget any more than the per-shard one.

**Failover** is layered: shard gateways run with
``ServeConfig.failover=True``, so a killed worker's in-flight batches
re-dispatch to surviving replicas inside the shard.  When a kill takes
a shard's *last* replica, the cluster heals the shard map — the shard
leaves the ring at that sim instant, the epoch bumps, and subsequent
submits for its tenants land on surviving shards.  Healing is
deterministic: it happens synchronously in ``kill_worker`` on the sim
clock, and the post-heal assignment is a pure function of surviving
membership.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING, Generator, Sequence

from repro.errors import ClusterError, NoLatencySamplesError
from repro.obs import QuantileSketch
from repro.serve import ServeConfig, ServeGateway, ServeRequest, ServeTicket
from repro.serve.admission import AdmissionController
from repro.serve.gateway import TelemetryConfig
from repro.serve.request import DEFAULT_TENANT
from repro.cluster.placement import plan_placement
from repro.cluster.shard import ShardMap

if TYPE_CHECKING:
    from repro.dpu.device import BlueFieldDPU
    from repro.obs import FleetAggregator
    from repro.serve.gateway import DpuWorker
    from repro.sim.engine import Environment

__all__ = ["ClusterConfig", "ServeCluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-level policy knobs.

    ``serve`` is the per-shard gateway template; the cluster overrides
    its ``max_pending`` (with ``shard_max_pending``), turns on
    ``failover``, and stamps per-shard telemetry, leaving every other
    knob (batching, router, sched, codecs) as given.
    """

    num_shards: int = 4
    # Global pending budget across all shards (the host submit path's
    # protection); per-shard budget is the gateway's own bound.
    global_max_pending: int = 1024
    shard_max_pending: int = 64
    serve: ServeConfig = field(default_factory=ServeConfig)


class ServeCluster:
    """S sharded gateways over a placed device fleet, one sim clock."""

    def __init__(
        self,
        env: "Environment",
        devices: "Sequence[BlueFieldDPU]",
        config: "ClusterConfig | None" = None,
        aggregator: "FleetAggregator | None" = None,
    ) -> None:
        self.env = env
        self.config = config or ClusterConfig()
        groups = plan_placement(devices, self.config.num_shards)
        self.shard_names = tuple(
            f"shard{i}" for i in range(len(groups))
        )
        self.gateways: "dict[str, ServeGateway]" = {}
        for i, (name, members) in enumerate(zip(self.shard_names, groups)):
            # Telemetry fan-out: each shard's gateway is labeled gateway=gw<i>.
            telemetry = None
            if aggregator is not None:
                telemetry = TelemetryConfig(gateway=f"gw{i}", aggregator=aggregator)
            shard_config = dataclasses.replace(
                self.config.serve,
                max_pending=self.config.shard_max_pending,
                failover=True,
                telemetry=telemetry,
            )
            self.gateways[name] = ServeGateway(env, members, shard_config)
        self.shard_map = ShardMap(self.shard_names)
        self.admission = AdmissionController(self.config.global_max_pending)
        self.aggregator = aggregator
        self.submitted = 0
        self.shed_global = 0
        self.shed_shard = 0
        # (submit#, tenant, shard, epoch) per routed request — digested
        # (with the per-gateway batch routing logs) by the bench gate.
        self.routing_log: "list[tuple[int, str, str, int]]" = []

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def shard_for(self, tenant: "str | None") -> str:
        """The shard currently owning ``tenant`` (healed map)."""
        return self.shard_map.lookup(tenant or DEFAULT_TENANT)

    def submit(self, request: ServeRequest) -> ServeTicket:
        """Offer one request through both admission layers.

        Order matters for the budget invariant: the global slot is
        taken first, and *released immediately* if the owning shard
        sheds — the shard refusal must not burn global budget for work
        that will never run.
        """
        self.submitted += 1
        if not self.admission.try_admit():
            self.shed_global += 1
            return ServeTicket(request, None)
        tenant = request.tenant or DEFAULT_TENANT
        shard, epoch = self.shard_map.lookup_versioned(tenant)
        self.routing_log.append((self.submitted - 1, tenant, shard, epoch))
        ticket = self.gateways[shard].submit(request)
        if ticket.shed:
            self.admission.complete()
            self.shed_shard += 1
            return ticket
        # Exactly-once global release: the entry event fires once,
        # whether the batch succeeded, failed over, or died with its
        # last replica.
        ticket.event.callbacks.append(self._release_global)
        return ticket

    def _release_global(self, _event) -> None:
        self.admission.complete()

    def drain(self) -> Generator:
        """Flush and wait out every shard gateway."""
        for name in self.shard_names:
            gateway = self.gateways[name]
            gateway.batcher.flush_all()
        for name in self.shard_names:
            yield from self.gateways[name].drain()

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------

    def kill_worker(self, worker_name: str) -> str:
        """Kill a worker anywhere in the cluster; heal if its shard died.

        Returns the owning shard's name.  In-shard failover is the
        gateway's job (in-flight batches re-dispatch to live replicas);
        this layer only removes the shard from the hash ring when the
        kill took its last replica, so *future* submits for its tenants
        remap deterministically at the current sim instant.
        """
        for name in self.shard_names:
            gateway = self.gateways[name]
            for worker in gateway.workers:
                if worker.name == worker_name:
                    gateway.kill_worker(worker_name)
                    if (not any(w.alive for w in gateway.workers)
                            and name in self.shard_map.shards
                            and len(self.shard_map.shards) > 1):
                        self.shard_map.remove_shard(name)
                    return name
        raise ClusterError(f"no worker named {worker_name!r} in cluster")

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    @property
    def workers(self) -> "list[DpuWorker]":
        """Every worker across every shard (shard order, then fleet)."""
        return [
            w for name in self.shard_names
            for w in self.gateways[name].workers
        ]

    @property
    def completed(self) -> int:
        return sum(g.completed for g in self.gateways.values())

    @property
    def completed_sim_bytes(self) -> float:
        return reduce(operator.add,
                      (g.completed_sim_bytes for g in self.gateways.values()), 0)

    @property
    def shed(self) -> int:
        """Total refusals at either admission layer."""
        return self.shed_global + self.shed_shard

    @property
    def pending(self) -> int:
        """Globally tracked pending (== sum of shard pendings plus any
        requests between the two admission layers, which is zero
        outside ``submit`` itself)."""
        return self.admission.pending

    @property
    def sample_count(self) -> int:
        return sum(g.sample_count for g in self.gateways.values())

    def latency_percentile(self, q: float) -> float:
        """Cluster-wide sketch-merged latency percentile (q in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        sketches = [
            g.latency_sketch for g in self.gateways.values()
            if g.latency_sketch.count
        ]
        if not sketches:
            raise NoLatencySamplesError("no completed requests yet")
        return QuantileSketch.merged(sketches).quantile(q / 100.0)

    def peak_shard_pending(self) -> "dict[str, int]":
        """Per-shard peak admission occupancy (budget-invariant probe)."""
        return {
            name: self.gateways[name].admission.peak_pending
            for name in self.shard_names
        }
