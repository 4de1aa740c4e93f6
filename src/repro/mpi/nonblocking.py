"""Non-blocking point-to-point: MPI_Isend / MPI_Irecv / Wait / Waitall.

A non-blocking call spawns the blocking flow as its own simulated
process and returns a :class:`Request` handle.  ``wait`` yields until
that process completes; ``test`` polls without blocking.  Compression
happens inside the spawned flow exactly as in the blocking path, so a
rank can overlap codec/communication work across several in-flight
messages (the C-Engine and SoC resources arbitrate contention).

Requests are not limited to sends and receives: :func:`from_ticket`
wraps a pipelined C-Engine job (:class:`~repro.sched.JobTicket`) so
``waitall`` can await compression jobs and communication side by side.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterable

import numpy as np

from repro.sim.engine import Event

if TYPE_CHECKING:
    from repro.mpi.runtime import RankContext
    from repro.sched import JobTicket

__all__ = ["Request", "waitall", "from_ticket"]


def _default_sim_bytes(data: Any) -> float:
    """The nominal wire size of a message payload without ``sim_bytes``."""
    if isinstance(data, np.ndarray):
        return float(data.nbytes)
    if isinstance(data, (bytes, bytearray, memoryview)):
        return float(len(data))
    return 64.0  # small control object


class Request:
    """Handle to an in-flight non-blocking operation.

    Wraps any simulation event — usually the :class:`~repro.sim.Process`
    of a spawned send/receive flow, but equally an in-flight compression
    job (see :func:`from_ticket`).
    """

    __slots__ = ("_proc",)

    def __init__(self, proc: Event) -> None:
        self._proc = proc

    @property
    def complete(self) -> bool:
        """True once the operation has finished (MPI_Test semantics)."""
        return self._proc.processed

    def wait(self) -> Generator:
        """Block until completion; returns the operation's value (the
        received data for irecv, the :class:`~repro.sched.JobOutcome`
        for a pipeline ticket, None for isend)."""
        value = yield self._proc
        return value


def isend(
    ctx: "RankContext",
    dest: int,
    data: Any,
    tag: int = 0,
    sim_bytes: float | None = None,
) -> Request:
    """Start a non-blocking send; returns its :class:`Request`."""
    proc = ctx.env.process(
        ctx.send(dest, data, tag=tag, sim_bytes=sim_bytes),
        name=f"isend:{ctx.rank}->{dest}",
    )
    return Request(proc)


def irecv(ctx: "RankContext", source: int = -1, tag: int = -1) -> Request:
    """Start a non-blocking receive; ``wait`` returns the data."""
    proc = ctx.env.process(
        ctx.recv(source=source, tag=tag), name=f"irecv:{ctx.rank}<-{source}"
    )
    return Request(proc)


def from_ticket(ticket: "JobTicket") -> Request:
    """Wrap a pipelined C-Engine job as an MPI request.

    Lets a rank await in-flight work-queue jobs
    (:meth:`~repro.sched.PipelineScheduler.submit`) with the same
    ``wait``/``waitall`` machinery as sends and receives; the request's
    value is the job's :class:`~repro.sched.JobOutcome`.
    """
    return Request(ticket.event)


def waitall(ctx: "RankContext", requests: Iterable[Request]) -> Generator:
    """MPI_Waitall: block until every request completes.

    Returns the per-request values in order.
    """
    values = yield ctx.env.all_of([req._proc for req in requests])
    return values
