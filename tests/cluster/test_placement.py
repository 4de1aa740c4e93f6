"""Placement tests: capability spread over a mixed fleet."""

from __future__ import annotations

import pytest

from repro.cluster import device_supports, plan_placement
from repro.dpu import make_device
from repro.dpu.specs import Direction
from repro.errors import ClusterError


def test_device_supports_mirrors_engine_capabilities(env):
    bf2 = make_device(env, "bf2")
    bf3 = make_device(env, "bf3")
    assert device_supports(bf2, Direction.COMPRESS)
    assert device_supports(bf2, Direction.DECOMPRESS)
    # BF-3's C-Engine is decompress-only (paper Tables II/III).
    assert not device_supports(bf3, Direction.COMPRESS)
    assert device_supports(bf3, Direction.DECOMPRESS)


def test_capability_spread_gives_every_shard_a_compress_engine(env, fleet):
    shards = plan_placement(fleet, 2)
    assert len(shards) == 2
    assert sorted(len(s) for s in shards) == [3, 3]
    for members in shards:
        assert any(device_supports(d, Direction.COMPRESS) for d in members)


def test_capability_spread_balances_replica_counts(env):
    # 1 BF-2 + 5 BF-3: the lone compress engine lands on one shard, the
    # decompress-only remainder fills smallest-first, sizes within one.
    devices = [make_device(env, "bf2", name="bf2-0")] + [
        make_device(env, "bf3", name=f"bf3-{i}") for i in range(5)
    ]
    shards = plan_placement(devices, 3)
    assert sorted(len(s) for s in shards) == [2, 2, 2]


def test_placement_is_deterministic(env, fleet):
    a = plan_placement(fleet, 3)
    b = plan_placement(fleet, 3)
    assert [[d.name for d in s] for s in a] == [[d.name for d in s] for s in b]


def test_placement_rejects_bad_arguments(env, fleet):
    with pytest.raises(ClusterError):
        plan_placement(fleet, 0)
    with pytest.raises(ClusterError):
        plan_placement(fleet, len(fleet) + 1)
