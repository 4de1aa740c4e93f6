"""Host-side scratch-buffer pool for the hot codec kernels.

:mod:`repro.core.mempool` models the *device* buffer pool (DOCA
``doca_buf`` inventory, simulated clock).  This module is its host-side
counterpart: a real, wall-clock pool of numpy arenas.  ``core.mempool``
re-exports it so both halves of the story live behind one import.

The pool is **demand-driven**: nothing prewarms it.  Its one consumer,
:meth:`repro.util.bitio.BitWriter.write_code_array`, leases the Huffman
pack buffer of *one block* (~300 B for a 256 B serve request, 135–701 KB
per MiB of corpus data) from the process-global pool
(:func:`get_scratch_pool`); a first-use miss is one untouched
``np.empty`` (~1 µs).  An arena only serves its own size class, so
seeding by *message* size zero-fills memory no request is ever handed
(DESIGN.md §5j has the measurements).

Design points:

* **Power-of-two size classes.**  An ``acquire(nbytes)`` is served from
  the smallest arena class that fits; arenas are recycled per class.
* **Zero-on-acquire.**  The *requested* bytes of the returned view are
  zero-filled every time.  A pooled buffer is handed to a *different*
  request on reuse, and codec scratch regularly holds plaintext —
  zeroing is the invariant that no request can observe another
  request's bytes through the pool (enforced by
  ``tests/core/test_scratch_pool.py``).
* **Guarded lifecycle.**  Double release and foreign-buffer release
  raise :class:`ScratchLifecycleError` instead of silently corrupting
  the free list (:class:`~repro.util.lease.LeaseLedger`, shared with
  the device pool).
* **Thread-safe.**  One lock around every free-list and stats update.
* **Counted.**  ``zeroed_bytes`` and ``arenas_allocated`` price the
  zero-fill and the allocations separately.  They stay off the
  :mod:`repro.obs` registry: scratch traffic depends on codec-memo
  state, and identical sim runs must dump identical registries.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import PoolLifecycleError
from repro.util.lease import LeaseLedger

__all__ = [
    "ScratchLifecycleError",
    "ScratchStats",
    "ScratchPool",
    "get_scratch_pool",
    "set_scratch_pool",
    "scratch_lease",
]

#: Smallest arena ever allocated; sub-KiB requests share one class.
MIN_CLASS_BYTES = 1024


class ScratchLifecycleError(PoolLifecycleError):
    """A scratch buffer was released twice, or was never acquired here."""


@dataclass
class ScratchStats:
    """Counters for one :class:`ScratchPool`."""

    hits: int = 0            # acquires served from a recycled arena
    misses: int = 0          # fresh arenas: acquire misses + prewarm top-ups
    releases: int = 0
    bytes_served: int = 0    # sum of requested nbytes over all acquires
    high_water_outstanding: int = 0
    retired: int = 0         # arenas dropped because a class was full
    zeroed_bytes: int = 0    # bytes the zero-on-acquire fill has written
    arenas_allocated: int = 0  # np.empty calls (a prewarm top-up zeroes none)

    @property
    def acquires(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.acquires
        return self.hits / total if total else 0.0


def _size_class(nbytes: int) -> int:
    """Smallest power-of-two arena size >= max(nbytes, MIN_CLASS_BYTES)."""
    want = max(int(nbytes), MIN_CLASS_BYTES)
    return 1 << (want - 1).bit_length()


class ScratchPool:
    """Recycling pool of zeroed ``uint8`` numpy arenas."""

    def __init__(self, max_buffers_per_class: int = 8) -> None:
        if max_buffers_per_class < 1:
            raise ValueError("max_buffers_per_class must be >= 1")
        self.max_buffers_per_class = max_buffers_per_class
        self._free: "dict[int, list[np.ndarray]]" = {}
        # view -> its whole arena, for every lease not yet released.
        self._leases = LeaseLedger(ScratchLifecycleError)
        self._lock = threading.Lock()
        self.stats = ScratchStats()

    def _new_arena(self, cls: int) -> np.ndarray:
        """One untouched arena of class ``cls``; caller holds the lock."""
        self.stats.misses += 1
        self.stats.arenas_allocated += 1
        return np.empty(cls, dtype=np.uint8)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def acquire(self, nbytes: int) -> np.ndarray:
        """Borrow a zeroed ``uint8`` array of exactly ``nbytes`` elements.

        The returned array is a view into a pooled arena; hand it back
        with :meth:`release` (or use :meth:`lease`).  The view is
        zero-filled on every acquire — see the module docstring for why
        that is load-bearing.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        cls = _size_class(nbytes)
        with self._lock:
            free = self._free.get(cls)
            if free:
                arena = free.pop()
                self.stats.hits += 1
            else:
                arena = self._new_arena(cls)
            view = arena[:nbytes]
            view.fill(0)
            self._leases.issue(view, arena)
            self.stats.zeroed_bytes += nbytes
            self.stats.bytes_served += nbytes
            self.stats.high_water_outstanding = max(
                self.stats.high_water_outstanding, len(self._leases)
            )
        return view

    def release(self, view: np.ndarray) -> None:
        """Return a borrowed view; raises on double/foreign release."""
        with self._lock:
            arena = self._leases.settle(view)
            free = self._free.setdefault(arena.size, [])
            if len(free) < self.max_buffers_per_class:
                free.append(arena)
            else:
                self.stats.retired += 1
            self.stats.releases += 1

    @contextmanager
    def lease(self, nbytes: int) -> Iterator[np.ndarray]:
        """``with pool.lease(n) as buf:`` — acquire/release pairing."""
        view = self.acquire(nbytes)
        try:
            yield view
        finally:
            self.release(view)

    # ------------------------------------------------------------------
    # Management
    # ------------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self._leases)

    def prewarm(self, nbytes: int, count: int = 1) -> None:
        """Top up the class serving ``nbytes`` to ``count`` free arenas.

        Only the shortfall is allocated (as misses — the stats document
        where arenas came from), capped at ``max_buffers_per_class``,
        and never zero-filled: :meth:`acquire` zeroes what it hands out.
        A class already holding ``count`` free arenas is left alone.
        """
        cls = _size_class(nbytes)
        with self._lock:
            free = self._free.setdefault(cls, [])
            while len(free) < min(count, self.max_buffers_per_class):
                free.append(self._new_arena(cls))

    def drain(self) -> None:
        """Drop every free arena; raises if leases are outstanding."""
        with self._lock:
            self._leases.require_settled("drain")
            self._free.clear()


_global_pool = ScratchPool()
_global_lock = threading.Lock()


def get_scratch_pool() -> ScratchPool:
    """The process-global pool the vectorized kernels allocate from."""
    return _global_pool


def set_scratch_pool(pool: ScratchPool) -> ScratchPool:
    """Swap the global pool; returns the previous one (tests use this)."""
    global _global_pool
    with _global_lock:
        prev = _global_pool
        _global_pool = pool
    return prev


@contextmanager
def scratch_lease(nbytes: int) -> Iterator[np.ndarray]:
    """Lease from the process-global pool."""
    with get_scratch_pool().lease(nbytes) as view:
        yield view
