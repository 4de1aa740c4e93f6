"""Broadcast composed from point-to-point sends/receives.

Every hop goes through the full compression shim, exactly as the
MPICH co-design composes (each relay decompresses at ``MPI_Recv`` and
recompresses at its ``MPI_Send``).  Broadcast offers MPICH's two
algorithms — binomial tree (short messages / small communicators) and
scatter + ring-allgather (long messages).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from repro.mpi.nonblocking import isend
from repro.obs import device_span

if TYPE_CHECKING:
    from repro.mpi.runtime import RankContext

__all__ = ["bcast", "BCAST_LONG_MSG_BYTES"]

_BCAST_TAG = 0x7B01
_SCATTER_TAG = 0x7B03
_ALLGATHER_TAG = 0x7B05

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
    zero-length arrays) — deliberately so: the scatter and the ring
    round-trip them losslessly (``_join`` restores the original payload),
    the compression shim passes zero-byte messages through uncompressed
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
    # Linear scatter: the root sends every other rank its chunk.
    with device_span("mpi.scatter", ctx.device, rank=ctx.rank, root=root):
        if ctx.rank == root:
            chunks = _split(data, size)
            for dst in range(size):
                if dst != root:
                    yield from ctx.send(
                        dst, chunks[dst], tag=_SCATTER_TAG, sim_bytes=chunk_sim
                    )
            mine = chunks[root]
        else:
            mine = yield from ctx.recv(source=root, tag=_SCATTER_TAG)

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
