"""Lifecycle properties of the host-side scratch-buffer pool (PR 8).

The pool's two safety invariants are tested adversarially:

* **No double/foreign release** — returning a buffer twice, or a buffer
  the pool never handed out, raises :class:`ScratchLifecycleError`
  instead of corrupting the free list.
* **No cross-request plaintext leak** — a buffer written by one request
  and recycled to another is always zero-filled on acquire, so no
  lease can observe a previous lease's bytes.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mempool import (
    ScratchLifecycleError,
    ScratchPool,
    get_scratch_pool,
    scratch_lease,
    set_scratch_pool,
)
from repro.errors import PoolLifecycleError
from repro.util.scratch import MIN_CLASS_BYTES, _size_class


def test_size_class_rounding():
    assert _size_class(0) == MIN_CLASS_BYTES
    assert _size_class(1) == MIN_CLASS_BYTES
    assert _size_class(MIN_CLASS_BYTES) == MIN_CLASS_BYTES
    assert _size_class(MIN_CLASS_BYTES + 1) == 2 * MIN_CLASS_BYTES
    assert _size_class(3000) == 4096
    assert _size_class(1 << 20) == 1 << 20


def test_acquire_release_reuses_arena():
    pool = ScratchPool()
    a = pool.acquire(2048)
    assert a.size == 2048 and a.dtype == np.uint8
    pool.release(a)
    b = pool.acquire(2000)  # same 2048-byte class
    assert pool.stats.hits == 1 and pool.stats.misses == 1
    pool.release(b)


def test_double_release_raises():
    pool = ScratchPool()
    view = pool.acquire(100)
    pool.release(view)
    with pytest.raises(ScratchLifecycleError):
        pool.release(view)


def test_foreign_release_raises():
    pool = ScratchPool()
    with pytest.raises(ScratchLifecycleError):
        pool.release(np.zeros(64, dtype=np.uint8))


def test_negative_acquire_rejected():
    with pytest.raises(ValueError):
        ScratchPool().acquire(-1)


def test_zero_on_acquire_no_plaintext_leak():
    pool = ScratchPool()
    secret = pool.acquire(4096)
    secret[:] = np.frombuffer(b"hunter2!" * 512, dtype=np.uint8)
    pool.release(secret)
    # Same size class: the recycled arena still physically holds the
    # secret, but the view handed out must be zeroed.
    reused = pool.acquire(4096)
    assert pool.stats.hits == 1  # really the recycled arena
    assert not reused.any()
    pool.release(reused)


def test_live_leases_do_not_alias():
    pool = ScratchPool()
    views = [pool.acquire(1024) for _ in range(6)]
    for i, view in enumerate(views):
        view.fill(i + 1)
    for i, view in enumerate(views):
        assert (view == i + 1).all()
    assert pool.outstanding == 6
    for view in views:
        pool.release(view)
    assert pool.outstanding == 0


def test_lease_releases_on_exception():
    pool = ScratchPool()
    with pytest.raises(RuntimeError, match="boom"):
        with pool.lease(512):
            raise RuntimeError("boom")
    assert pool.outstanding == 0


def test_prewarm_then_drain():
    pool = ScratchPool()
    pool.prewarm(8192, count=3)
    assert pool.stats.misses == 3 and pool.outstanding == 0
    a = pool.acquire(8192)
    assert pool.stats.hits == 1
    with pytest.raises(ScratchLifecycleError):
        pool.drain()  # lease outstanding
    pool.release(a)
    pool.drain()
    b = pool.acquire(8192)  # drained: must allocate fresh
    assert pool.stats.misses == 4
    pool.release(b)


def test_fresh_prewarm_allocates_without_zeroing():
    pool = ScratchPool()
    pool.prewarm(8192, count=3)
    assert pool.stats.misses == 3 and pool.stats.arenas_allocated == 3
    assert pool.stats.zeroed_bytes == 0 and pool.stats.bytes_served == 0
    assert pool.stats.hits == 0 and pool.stats.releases == 0


def test_prewarm_on_warm_class_is_noop():
    pool = ScratchPool()
    pool.prewarm(8192, count=3)
    before = dataclasses.replace(pool.stats)
    pool.prewarm(8192, count=3)
    pool.prewarm(5000, count=2)  # same 8 KiB class, already above 2
    assert pool.stats == before
    pool.prewarm(8192, count=5)  # tops up the shortfall only
    assert pool.stats.arenas_allocated == 5 and pool.stats.zeroed_bytes == 0


def test_prewarm_capped_at_class_capacity():
    pool = ScratchPool(max_buffers_per_class=2)
    pool.prewarm(1024, count=100)
    assert pool.stats.arenas_allocated == 2


def test_zero_on_acquire_holds_after_top_up():
    """A topped-up arena is untouched ``np.empty`` memory; whatever it
    holds, the lease handed out of it is zero."""
    pool = ScratchPool()
    pool.prewarm(4096, count=2)
    for arena in pool._free[_size_class(4096)]:
        arena.fill(0xA5)  # stand-in for whatever np.empty left there
    first, second = pool.acquire(4096), pool.acquire(3000)
    assert pool.stats.hits == 2  # both served from the top-up
    assert not first.any() and not second.any()
    first.fill(0xFF)
    pool.release(first)
    pool.prewarm(4096, count=1)  # warm: must not disturb the books
    again = pool.acquire(4096)
    assert not again.any()
    assert pool.stats.zeroed_bytes == 4096 + 3000 + 4096
    pool.release(second)
    pool.release(again)


def test_lifecycle_error_is_a_pool_lifecycle_error():
    """One ``except`` covers both pools' acquire/release contract."""
    pool = ScratchPool()
    with pytest.raises(PoolLifecycleError):
        pool.release(np.zeros(8, dtype=np.uint8))
    assert issubclass(ScratchLifecycleError, PoolLifecycleError)


def test_class_capacity_retires_excess():
    pool = ScratchPool(max_buffers_per_class=2)
    views = [pool.acquire(1024) for _ in range(4)]
    for view in views:
        pool.release(view)
    assert pool.stats.retired == 2


def test_global_pool_swap_and_lease():
    prev = set_scratch_pool(ScratchPool())
    try:
        with scratch_lease(256) as buf:
            assert buf.size == 256
            assert get_scratch_pool().outstanding == 1
        assert get_scratch_pool().outstanding == 0
    finally:
        set_scratch_pool(prev)


def test_thread_safety_smoke():
    pool = ScratchPool()
    errors: "list[Exception]" = []

    def worker(tag: int) -> None:
        try:
            for _ in range(200):
                with pool.lease(2048) as buf:
                    if buf.any():
                        raise AssertionError("dirty buffer from pool")
                    buf.fill(tag)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t + 1,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert pool.outstanding == 0
    assert pool.stats.acquires == 800


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1 << 16),
            st.binary(min_size=1, max_size=8),
        ),
        min_size=1,
        max_size=24,
    )
)
def test_lifecycle_property(requests):
    """Interleaved acquire/poison/release keeps every invariant.

    For a random batch of sizes: all leases are zero on acquire (even
    though each is poisoned before release), no two live views share
    memory, and the books balance at the end.
    """
    pool = ScratchPool(max_buffers_per_class=3)
    live = []
    for nbytes, poison in requests:
        view = pool.acquire(nbytes)
        assert view.size == nbytes
        assert not view.any()
        if nbytes:
            pattern = np.frombuffer(
                (poison * (nbytes // len(poison) + 1))[:nbytes], dtype=np.uint8
            )
            view[:] = pattern
            live.append((view, pattern))
        else:
            live.append((view, None))
        # Release about half the live set as we go, newest first.
        while len(live) > 2:
            done, expect = live.pop()
            if expect is not None:
                assert np.array_equal(done, expect)  # nobody scribbled on it
            pool.release(done)
    for view, expect in live:
        if expect is not None:
            assert np.array_equal(view, expect)
        pool.release(view)
    assert pool.outstanding == 0
    assert pool.stats.releases == pool.stats.acquires == len(requests)
