"""Consistent-hash shard map: tenant keys → shards, heal on membership change.

The cluster's front doors (N :class:`~repro.serve.ServeGateway`\\ s) must
agree on which shard owns a tenant *without* talking to each other — in
the paper's deployment every host-side client library hashes locally.
A :class:`ConsistentHashRing` makes the owner a pure function of
``(member set, key)``: every gateway holding the same member
set computes the same owner, and removing one member only moves the
keys that member owned (~K/N of them), so a worker-pool loss does not
reshuffle the whole tenant space.

:class:`ShardMap` wraps the ring with an **epoch**: a monotonically
increasing version bumped on every join/leave.  Lookups report the
epoch alongside the owner so callers can detect (and tests can assert)
that two gateways resolving the same key at the same epoch agree.
Healing is synchronous and deterministic — membership changes happen at
a sim-clock instant, the ring is rebuilt from the surviving member set,
and there is no gossip delay to race against.

Hashing is BLAKE2b (like :mod:`repro.faults`' draw function): stable
across processes and Python versions, unlike builtin ``hash``.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Iterator, Sequence

from repro.errors import ShardMapError

__all__ = ["ConsistentHashRing", "ShardMap", "hash64"]

#: Ring points per member.
VNODES = 64
#: Keys whose owner one ring remembers; past this the memo starts over.
_OWNER_MEMO_KEYS = 4096


def hash64(key: str) -> int:
    """Stable 64-bit hash of ``key`` (BLAKE2b-8, big-endian)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """Classic consistent hashing with virtual nodes.

    Each member contributes :data:`VNODES` points at
    ``hash64(f"{member}#{i}")``; a key is owned by the first point
    clockwise from ``hash64(key)``.  The ring is a pure function of the
    member *set* — construction order never matters — which is what
    lets independent gateways agree without coordination.
    """

    __slots__ = ("_points", "_owners", "_members", "_owner_of")

    def __init__(self, members: Iterable[str]) -> None:
        self._members = tuple(sorted(set(members)))
        points: list[tuple[int, str]] = []
        for member in self._members:
            for i in range(VNODES):
                points.append((hash64(f"{member}#{i}"), member))
        # Ties between distinct members' points are broken by member
        # name (sort is on the tuple), keeping ownership deterministic
        # even on 64-bit hash collisions.
        points.sort()
        self._points = [p[0] for p in points]
        self._owners = [p[1] for p in points]
        # key -> owner.  A ring never changes (joins and leaves build a
        # new one), so an owner, once found, is found for good.
        self._owner_of: "dict[str, str]" = {}

    @property
    def members(self) -> "tuple[str, ...]":
        return self._members

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in set(self._members)

    def __iter__(self) -> Iterator[str]:
        return iter(self._members)

    def lookup(self, key: str) -> str:
        """The member owning ``key`` (first ring point clockwise)."""
        owner = self._owner_of.get(key)
        if owner is not None:
            return owner
        if not self._members:
            raise ShardMapError("lookup on an empty ring")
        h = hash64(key)
        idx = bisect.bisect_right(self._points, h)
        if idx == len(self._points):  # wrap past the top of the ring
            idx = 0
        owner = self._owners[idx]
        if len(self._owner_of) >= _OWNER_MEMO_KEYS:
            self._owner_of.clear()
        self._owner_of[key] = owner
        return owner

    def with_member(self, member: str) -> "ConsistentHashRing":
        """A new ring with ``member`` joined (idempotent)."""
        return ConsistentHashRing(set(self._members) | {member})

    def without_member(self, member: str) -> "ConsistentHashRing":
        """A new ring with ``member`` removed."""
        if member not in set(self._members):
            raise ShardMapError(f"member {member!r} not on the ring")
        return ConsistentHashRing(set(self._members) - {member})


class ShardMap:
    """Versioned tenant→shard assignment shared by every gateway.

    ``lookup`` resolves a tenant key against the current ring;
    ``remove_shard`` / ``add_shard`` bump the epoch and rebuild the
    ring from the new member set (deterministic healing — the ring is
    a pure function of membership, so every observer lands on the same
    post-heal assignment).  ``assignment_log`` records each membership
    change as ``(epoch, op, shard)`` for the bench's routing digest.
    """

    __slots__ = ("_ring", "_epoch", "assignment_log")

    def __init__(self, shards: Sequence[str]) -> None:
        if not shards:
            raise ShardMapError("ShardMap needs at least one shard")
        self._ring = ConsistentHashRing(shards)
        self._epoch = 0
        self.assignment_log: "list[tuple[int, str, str]]" = []

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def shards(self) -> "tuple[str, ...]":
        return self._ring.members

    def lookup(self, tenant: str) -> str:
        """The shard owning ``tenant`` at the current epoch."""
        return self._ring.lookup(tenant)

    def lookup_versioned(self, tenant: str) -> "tuple[str, int]":
        """``(owner, epoch)`` — for agreement assertions across gateways."""
        return self._ring.lookup(tenant), self._epoch

    def remove_shard(self, shard: str) -> int:
        """Heal around a lost shard; returns the new epoch."""
        if len(self._ring) <= 1:
            raise ShardMapError(
                f"cannot remove {shard!r}: it is the last shard"
            )
        self._ring = self._ring.without_member(shard)
        self._epoch += 1
        self.assignment_log.append((self._epoch, "remove", shard))
        return self._epoch

    def add_shard(self, shard: str) -> int:
        """Join a (new or recovered) shard; returns the new epoch."""
        if shard in self._ring:
            raise ShardMapError(f"shard {shard!r} already on the ring")
        self._ring = self._ring.with_member(shard)
        self._epoch += 1
        self.assignment_log.append((self._epoch, "add", shard))
        return self._epoch
