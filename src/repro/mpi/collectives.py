"""Collective operations composed from point-to-point sends/receives.

Every hop goes through the full compression shim, exactly as the
MPICH co-design composes (each relay decompresses at ``MPI_Recv`` and
recompresses at its ``MPI_Send``).  Broadcast offers MPICH's two
algorithms — binomial tree (short messages / small communicators) and
scatter + ring-allgather (long messages); gather/scatter are linear;
reduce is a binomial-tree fold; allgather is a ring; allreduce composes
reduce + bcast; alltoall is a pairwise exchange.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

import numpy as np

from repro.mpi.nonblocking import isend, waitall
from repro.obs import device_span

if TYPE_CHECKING:
    from repro.mpi.runtime import RankContext

__all__ = [
    "bcast",
    "gather",
    "scatter",
    "reduce",
    "allgather",
    "allreduce",
    "alltoall",
    "BCAST_LONG_MSG_BYTES",
]

_BCAST_TAG = 0x7B01
_GATHER_TAG = 0x7B02
_SCATTER_TAG = 0x7B03
_REDUCE_TAG = 0x7B04
_ALLGATHER_TAG = 0x7B05
_ALLTOALL_TAG = 0x7B06

# MPICH's default switchover to scatter+ring-allgather broadcast.
BCAST_LONG_MSG_BYTES = 512 * 1024

# Simulated wire charge for the tiny size-agreement control message
# auto-bcast sends when no ``sim_bytes`` hint is available (one
# 8-byte count, MPI_Bcast's envelope convention).
_AUTO_CTRL_SIM_BYTES = 8.0


def _payload_nbytes(data: Any) -> int:
    """Actual byte size of a payload (ndarray or bytes-like)."""
    return data.nbytes if isinstance(data, np.ndarray) else len(data)


def _split(data: Any, parts: int) -> list[Any]:
    """Split a payload into ``parts`` roughly equal chunks.

    When ``parts > len(data)`` the tail chunks are *empty* (b"" or
    zero-length arrays) — deliberately so: scatter/allgather round-trip
    them losslessly (``_join`` restores the original payload), the
    compression shim passes zero-byte messages through uncompressed
    below the rendezvous threshold, and a zero-byte PEDAL message
    round-trips as a 3-byte header.  ``parts`` must be >= 1.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if isinstance(data, np.ndarray):
        return [np.ascontiguousarray(c) for c in np.array_split(data, parts)]
    n = len(data)
    base = n // parts
    rem = n % parts
    chunks = []
    pos = 0
    for i in range(parts):
        take = base + (1 if i < rem else 0)
        chunks.append(data[pos : pos + take])
        pos += take
    return chunks


def _join(chunks: list[Any]) -> Any:
    if isinstance(chunks[0], np.ndarray):
        return np.concatenate(chunks)
    joined = bytearray()
    for chunk in chunks:
        joined += chunk
    return bytes(joined)


def bcast(
    ctx: "RankContext",
    data: Any,
    root: int = 0,
    sim_bytes: float | None = None,
    algorithm: str = "binomial",
) -> Generator:
    """Broadcast ``data`` from ``root``; returns it on every rank.

    ``algorithm``: ``"binomial"`` (tree), ``"scatter_allgather"``
    (MPICH's long-message algorithm), or ``"auto"`` (switch on the
    message size against :data:`BCAST_LONG_MSG_BYTES`).

    Auto sizing: ``sim_bytes`` decides when given.  Without it the
    *root's actual payload size* decides (``len`` / ``nbytes``) — the
    historical behavior treated a missing hint as zero bytes and
    always picked binomial, silently pessimizing long messages.  Only
    the root holds the payload, and every rank must pick the same
    algorithm or the collective deadlocks, so the root first shares
    its size over a tiny binomial control broadcast (charged
    ``_AUTO_CTRL_SIM_BYTES`` on the wire); with a ``sim_bytes`` hint
    no extra hop is needed.
    """
    if algorithm == "auto":
        if sim_bytes is not None:
            nominal = float(sim_bytes)
        else:
            nominal = yield from _bcast_binomial(
                ctx,
                float(_payload_nbytes(data)) if ctx.rank == root else None,
                root,
                _AUTO_CTRL_SIM_BYTES,
            )
        algorithm = (
            "scatter_allgather"
            if nominal > BCAST_LONG_MSG_BYTES and ctx.size > 2
            else "binomial"
        )
    if algorithm not in ("binomial", "scatter_allgather"):
        raise ValueError(f"unknown bcast algorithm {algorithm!r}")
    with device_span("mpi.bcast", ctx.device, rank=ctx.rank, root=root,
                     algorithm=algorithm):
        if algorithm == "scatter_allgather":
            result = yield from _bcast_scatter_allgather(
                ctx, data, root, sim_bytes
            )
        else:
            result = yield from _bcast_binomial(ctx, data, root, sim_bytes)
    return result


def _bcast_binomial(
    ctx: "RankContext", data: Any, root: int, sim_bytes: float | None
) -> Generator:
    size = ctx.size
    rank = ctx.rank
    relative = (rank - root) % size

    # Receive phase: wait for the parent's copy.
    mask = 1
    while mask < size:
        if relative & mask:
            src = (rank - mask) % size
            data = yield from ctx.recv(source=src, tag=_BCAST_TAG)
            break
        mask <<= 1

    # Send phase: forward to children in decreasing mask order.
    mask >>= 1
    while mask > 0:
        if relative + mask < size:
            dst = (rank + mask) % size
            yield from ctx.send(dst, data, tag=_BCAST_TAG, sim_bytes=sim_bytes)
        mask >>= 1
    return data


def _bcast_scatter_allgather(
    ctx: "RankContext", data: Any, root: int, sim_bytes: float | None
) -> Generator:
    """MPICH's long-message broadcast: scatter chunks, ring-allgather.

    Moves ~2x the data of the binomial tree in total, but each transfer
    is ``1/p`` of the message, so the critical path carries far fewer
    bytes — the standard large-message trade.
    """
    size = ctx.size
    if size == 1:
        return data
    chunk_sim = None if sim_bytes is None else sim_bytes / size
    chunks = _split(data, size) if ctx.rank == root else None
    mine = yield from scatter(ctx, chunks, root=root, sim_bytes=chunk_sim)

    # Ring allgather: after p-1 steps every rank holds every chunk.
    # Non-blocking sends avoid the classic all-blocking-send rendezvous
    # deadlock; chunk indices are deterministic per step, so only the
    # chunk bytes travel.
    collected: dict[int, Any] = {(ctx.rank - root) % size: mine}
    right = (ctx.rank + 1) % size
    left = (ctx.rank - 1) % size
    for step in range(size - 1):
        send_idx = (ctx.rank - root - step) % size
        recv_idx = (ctx.rank - root - step - 1) % size
        req = isend(
            ctx, right, collected[send_idx], tag=_ALLGATHER_TAG, sim_bytes=chunk_sim
        )
        chunk = yield from ctx.recv(source=left, tag=_ALLGATHER_TAG)
        collected[recv_idx] = chunk
        yield from req.wait()
    return _join([collected[i] for i in range(size)])


def gather(
    ctx: "RankContext", data: Any, root: int = 0, sim_bytes: float | None = None
) -> Generator:
    """Linear gather; the root returns the rank-ordered list, others None."""
    with device_span("mpi.gather", ctx.device, rank=ctx.rank, root=root):
        if ctx.rank == root:
            out: list[Any] = [None] * ctx.size
            out[root] = data
            for _ in range(ctx.size - 1):
                envlp_source, item = yield from ctx.recv_with_source(
                    tag=_GATHER_TAG
                )
                out[envlp_source] = item
            return out
        yield from ctx.send(root, data, tag=_GATHER_TAG, sim_bytes=sim_bytes)
    return None


def scatter(
    ctx: "RankContext",
    chunks: "list[Any] | None",
    root: int = 0,
    sim_bytes: float | None = None,
) -> Generator:
    """Linear scatter of a root-side list; returns this rank's chunk."""
    with device_span("mpi.scatter", ctx.device, rank=ctx.rank, root=root):
        if ctx.rank == root:
            assert chunks is not None and len(chunks) == ctx.size
            for dst in range(ctx.size):
                if dst != root:
                    yield from ctx.send(
                        dst, chunks[dst], tag=_SCATTER_TAG, sim_bytes=sim_bytes
                    )
            return chunks[root]
        item = yield from ctx.recv(source=root, tag=_SCATTER_TAG)
    return item


def allgather(
    ctx: "RankContext", data: Any, sim_bytes: float | None = None
) -> Generator:
    """Ring allgather; every rank returns the rank-ordered list."""
    size = ctx.size
    if size == 1:
        return [data]
    with device_span("mpi.allgather", ctx.device, rank=ctx.rank):
        collected: dict[int, Any] = {ctx.rank: data}
        right = (ctx.rank + 1) % size
        left = (ctx.rank - 1) % size
        for step in range(size - 1):
            send_idx = (ctx.rank - step) % size
            recv_idx = (ctx.rank - step - 1) % size
            req = isend(
                ctx, right, collected[send_idx], tag=_ALLGATHER_TAG,
                sim_bytes=sim_bytes,
            )
            chunk = yield from ctx.recv(source=left, tag=_ALLGATHER_TAG)
            collected[recv_idx] = chunk
            yield from req.wait()
    return [collected[i] for i in range(size)]


def allreduce(
    ctx: "RankContext",
    data: Any,
    op: Callable[[Any, Any], Any],
    sim_bytes: float | None = None,
) -> Generator:
    """Reduce-then-broadcast allreduce (MPICH's small-communicator path)."""
    with device_span("mpi.allreduce", ctx.device, rank=ctx.rank):
        reduced = yield from reduce(ctx, data, op, root=0, sim_bytes=sim_bytes)
        result = yield from bcast(ctx, reduced, root=0, sim_bytes=sim_bytes)
    return result


def alltoall(
    ctx: "RankContext", chunks: list[Any], sim_bytes: float | None = None
) -> Generator:
    """Pairwise-exchange alltoall; ``chunks[d]`` goes to rank ``d``.

    Returns the rank-ordered list of chunks received.  Non-blocking
    sends keep the exchange deadlock-free; the XOR-pairing schedule
    keeps each step contention-free on the fabric.
    """
    size = ctx.size
    if len(chunks) != size:
        raise ValueError(f"alltoall needs {size} chunks, got {len(chunks)}")
    with device_span("mpi.alltoall", ctx.device, rank=ctx.rank):
        out: list[Any] = [None] * size
        out[ctx.rank] = chunks[ctx.rank]
        requests = []
        for peer in range(size):
            if peer != ctx.rank:
                requests.append(
                    isend(ctx, peer, chunks[peer], tag=_ALLTOALL_TAG,
                          sim_bytes=sim_bytes)
                )
        for _ in range(size - 1):
            source, chunk = yield from ctx.recv_with_source(tag=_ALLTOALL_TAG)
            out[source] = chunk
        yield from waitall(ctx, requests)
    return out


def reduce(
    ctx: "RankContext",
    data: Any,
    op: Callable[[Any, Any], Any],
    root: int = 0,
    sim_bytes: float | None = None,
) -> Generator:
    """Binomial-tree reduction with a commutative ``op``.

    The root returns the reduced value, others None.
    """
    size = ctx.size
    relative = (ctx.rank - root) % size
    value = data
    with device_span("mpi.reduce", ctx.device, rank=ctx.rank, root=root):
        mask = 1
        while mask < size:
            if relative & mask:
                dst = (ctx.rank - mask) % size
                yield from ctx.send(
                    dst, value, tag=_REDUCE_TAG, sim_bytes=sim_bytes
                )
                return None
            src_rel = relative | mask
            if src_rel < size:
                src = (src_rel + root) % size
                other = yield from ctx.recv(source=src, tag=_REDUCE_TAG)
                value = op(value, other)
            mask <<= 1
    return value
