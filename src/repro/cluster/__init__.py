"""``repro.cluster`` — fleet-scale sharded serving over the DPU fleet.

The paper's end state is *many* BlueField DPUs absorbing host
compression traffic.  This package scales the single-gateway serving
layer (:mod:`repro.serve`) out to a cluster:

* :mod:`repro.cluster.shard` — consistent-hash tenant→shard map with
  epochs and deterministic healing;
* :mod:`repro.cluster.placement` — capability-aware device
  partitioning (BF-3 decompress-only respected);
* :mod:`repro.cluster.cluster` — :class:`ServeCluster`: S shard
  gateways, worker replication with in-shard failover, and a
  global-vs-per-shard admission split;
* :mod:`repro.cluster.traffic` — seeded open-loop generator (Poisson
  arrivals, diurnal modulation, heavy-tailed sizes, mixed tenants).

Whole-worker kill schedules live in :mod:`repro.faults.workers`.
"""

from repro.cluster.cluster import ClusterConfig, ServeCluster
from repro.cluster.placement import device_supports, plan_placement
from repro.cluster.shard import ConsistentHashRing, ShardMap, hash64
from repro.cluster.traffic import (
    DEFAULT_TENANTS,
    Arrival,
    TenantProfile,
    TrafficConfig,
    TrafficSchedule,
    build_schedule,
    traffic_process,
)

__all__ = [
    "ClusterConfig",
    "ServeCluster",
    "ConsistentHashRing",
    "ShardMap",
    "hash64",
    "device_supports",
    "plan_placement",
    "TenantProfile",
    "TrafficConfig",
    "TrafficSchedule",
    "Arrival",
    "DEFAULT_TENANTS",
    "build_schedule",
    "traffic_process",
]
