"""Unit tests for the consistent-hash ring and the versioned shard map."""

from __future__ import annotations

import pytest

from repro.cluster import ConsistentHashRing, ShardMap, hash64
from repro.errors import ShardMapError

KEYS = [f"tenant-{i}" for i in range(500)]


def test_hash64_is_stable_and_64_bit():
    assert hash64("tenant-0") == hash64("tenant-0")
    assert hash64("tenant-0") != hash64("tenant-1")
    for key in KEYS[:50]:
        assert 0 <= hash64(key) < 2**64


def test_ring_is_order_independent():
    a = ConsistentHashRing(["s0", "s1", "s2"])
    b = ConsistentHashRing(["s2", "s0", "s1"])
    assert a.members == b.members
    assert all(a.lookup(k) == b.lookup(k) for k in KEYS)


def test_ring_lookup_covers_all_members():
    ring = ConsistentHashRing(["s0", "s1", "s2", "s3"])
    owners = {ring.lookup(k) for k in KEYS}
    assert owners == {"s0", "s1", "s2", "s3"}


def test_ring_removal_only_moves_removed_members_keys():
    ring = ConsistentHashRing(["s0", "s1", "s2", "s3"])
    before = {k: ring.lookup(k) for k in KEYS}
    shrunk = ring.without_member("s2")
    for key, owner in before.items():
        if owner != "s2":
            assert shrunk.lookup(key) == owner
        else:
            assert shrunk.lookup(key) != "s2"


def test_ring_join_only_steals_for_the_new_member():
    ring = ConsistentHashRing(["s0", "s1", "s2"])
    before = {k: ring.lookup(k) for k in KEYS}
    grown = ring.with_member("s3")
    for key, owner in before.items():
        assert grown.lookup(key) in (owner, "s3")


def test_ring_membership_protocol():
    ring = ConsistentHashRing(["s0", "s1"])
    assert len(ring) == 2
    assert "s0" in ring and "s9" not in ring
    assert sorted(ring) == ["s0", "s1"]
    assert ring.with_member("s0").members == ring.members  # idempotent join
    with pytest.raises(ShardMapError):
        ring.without_member("s9")


def test_ring_rejects_empty_lookup():
    with pytest.raises(ShardMapError):
        ConsistentHashRing([]).lookup("tenant-0")


def test_shard_map_epoch_bumps_and_logs():
    smap = ShardMap(["s0", "s1", "s2"])
    assert smap.epoch == 0
    assert smap.assignment_log == []
    assert smap.remove_shard("s1") == 1
    assert smap.add_shard("s3") == 2
    assert smap.assignment_log == [(1, "remove", "s1"), (2, "add", "s3")]
    assert smap.shards == ("s0", "s2", "s3")


def test_shard_map_versioned_lookup_tracks_epoch():
    smap = ShardMap(["s0", "s1"])
    owner, epoch = smap.lookup_versioned("tenant-7")
    assert owner == smap.lookup("tenant-7")
    assert epoch == 0
    smap.remove_shard("s0" if owner == "s1" else "s1")
    _, epoch = smap.lookup_versioned("tenant-7")
    assert epoch == 1


def test_shard_map_refuses_to_remove_last_shard():
    smap = ShardMap(["s0", "s1"])
    smap.remove_shard("s0")
    with pytest.raises(ShardMapError):
        smap.remove_shard("s1")


def test_shard_map_rejects_duplicate_join_and_empty_init():
    smap = ShardMap(["s0"])
    with pytest.raises(ShardMapError):
        smap.add_shard("s0")
    with pytest.raises(ShardMapError):
        ShardMap([])
