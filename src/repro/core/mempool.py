"""PEDAL's memory pool of pre-mapped DOCA buffers (paper §III-C).

The pool is populated once during ``PEDAL_Init``: a set of maximally
sized buffers is allocated and DMA-mapped up front, so the per-message
path performs *no* allocation, deallocation, or regular↔DOCA memory
mapping.  Acquiring a pooled buffer is free in simulated time; if the
pool is exhausted (more concurrent messages than buffers) the pool
grows, paying the full map cost for the new buffer — a *pool miss*,
counted in the statistics.

The pool enforces the acquire/release lifecycle: every buffer handed
out is tracked in a :class:`~repro.util.lease.LeaseLedger` until it
comes back, so a double ``release()`` (which would put the same buffer
on the free list twice and hand it to two concurrent acquirers) and a
release of a buffer the pool never issued (a *foreign* buffer) both
raise :class:`~repro.errors.PoolLifecycleError` instead of silently
corrupting ``_free``.  ``drain()`` likewise refuses to tear the pool
down while buffers are outstanding — resetting the totals under a live
acquirer would leak the buffer out of the unmapped-tracking.

Two pools live under this module:

* :class:`MemoryPool` — the *simulated* DOCA buffer pool above, charged
  in device time.
* the **host-side scratch pool** (re-exported from
  :mod:`repro.util.scratch`) — real ``numpy`` byte buffers reused by the
  vectorized codec kernels' bit emission, charged in wall-clock time.
  It keeps the same ledger and discipline (:class:`ScratchLifecycleError`,
  a ``PoolLifecycleError``, on double or foreign release) and zeroes
  every buffer on acquire so one request's plaintext can never leak
  into another's scratch space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from repro.doca.buffers import BufInventory, DocaBuffer
from repro.obs import device_span, get_metrics
from repro.util.lease import LeaseLedger
from repro.util.scratch import (
    ScratchLifecycleError,
    ScratchPool,
    ScratchStats,
    get_scratch_pool,
    scratch_lease,
    set_scratch_pool,
)

__all__ = [
    "MemoryPool",
    "PoolStats",
    "ScratchLifecycleError",
    "ScratchPool",
    "ScratchStats",
    "get_scratch_pool",
    "scratch_lease",
    "set_scratch_pool",
]


@dataclass
class PoolStats:
    """Acquisition statistics for one pool."""

    hits: int = 0
    misses: int = 0
    grow_seconds: float = 0.0

    @property
    def acquisitions(self) -> int:
        return self.hits + self.misses


@dataclass
class MemoryPool:
    """Fixed-size-class pool of pre-mapped :class:`DocaBuffer` objects."""

    inventory: BufInventory
    buffer_bytes: int
    stats: PoolStats = field(default_factory=PoolStats)
    _free: list[DocaBuffer] = field(default_factory=list)
    # Buffers handed to an acquirer and not yet released.
    _leases: LeaseLedger = field(default_factory=LeaseLedger)
    _total: int = 0

    @property
    def total_buffers(self) -> int:
        return self._total

    @property
    def free_buffers(self) -> int:
        return len(self._free)

    @property
    def outstanding_buffers(self) -> int:
        """Buffers currently acquired and not yet released."""
        return len(self._leases)

    def prewarm(self, count: int) -> Generator:
        """Map ``count`` buffers up front; returns total mapping seconds.

        Called from ``PEDAL_Init`` — this is where the Fig. 7 overhead
        moves to.
        """
        device = self.inventory.session.device
        with device_span(
            "buffer.prep", device, what="mempool_prewarm",
            buffers=count, buffer_bytes=self.buffer_bytes,
        ):
            total = 0.0
            for _ in range(count):
                buf = yield from self.inventory.map_buffer(self.buffer_bytes)
                self._free.append(buf)
                self._total += 1
                total += buf.map_seconds
        return total

    def acquire(self) -> Generator:
        """Take a pooled buffer (free if available, else grow)."""
        metrics = get_metrics()
        if self._free:
            self.stats.hits += 1
            if metrics.recording:
                metrics.inc("mempool.hits")
            buf = self._free.pop()
            self._leases.issue(buf)
            return buf
        # Pool miss: map a fresh buffer at full cost.
        self.stats.misses += 1
        if metrics.recording:
            metrics.inc("mempool.misses")
        device = self.inventory.session.device
        with device_span(
            "buffer.prep", device, what="pool_miss_grow",
            buffer_bytes=self.buffer_bytes,
        ):
            buf = yield from self.inventory.map_buffer(self.buffer_bytes)
        self.stats.grow_seconds += buf.map_seconds
        self._total += 1
        self._leases.issue(buf)
        return buf

    def release(self, buf: DocaBuffer) -> None:
        """Return a buffer to the pool for reuse.

        Raises :class:`~repro.errors.PoolLifecycleError` when ``buf`` is
        not currently outstanding — a double release (the buffer already
        went back to ``_free``) or a foreign buffer this pool never
        issued.  Either would let one buffer be handed to two acquirers.
        """
        if not buf.is_live:
            raise ValueError("released buffer is no longer mapped")
        self._leases.settle(buf, free=self._free)
        self._free.append(buf)

    def drain(self) -> None:
        """Unmap every pooled buffer (PEDAL_finalize).

        Refuses while buffers are still outstanding: unmapping under a
        live acquirer (and zeroing ``_total``) would leak the buffer out
        of the pool's unmapped-tracking.
        """
        self._leases.require_settled("drain")
        for buf in self._free:
            buf.release()
        self._free.clear()
        self._total = 0
