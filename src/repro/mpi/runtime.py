"""The MPI job runtime: launch rank programs on simulated DPU nodes.

A *rank program* is a generator function ``def program(ctx): ...`` that
yields simulation events through the :class:`RankContext` helpers, just
like an ``mpi4py`` script uses its communicator.  :func:`run_mpi`
builds the cluster (one DPU per rank), runs the ``MPI_Init`` hooks
(which host ``PEDAL_init`` — paper §IV), executes all rank programs to
completion, reports their return values plus timing, and runs the
``MPI_Finalize`` hooks (``PEDAL_finalize``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator


from repro.dpu.device import BlueFieldDPU, make_device
from repro.errors import MpiAbortError
from repro.mpi import collectives, nonblocking
from repro.mpi.communicator import ANY_SOURCE, ANY_TAG, Communicator
from repro.mpi.network import Fabric
from repro.mpi.nonblocking import _default_sim_bytes
from repro.mpi.pedal_integration import CommConfig, CompressionLayer
from repro.obs import device_span
from repro.sim import Environment, Event, TimeBreakdown

__all__ = ["RankContext", "MpiJobResult", "run_mpi"]


class _Barrier:
    """Generation-counted central barrier."""

    def __init__(self, env: Environment, size: int) -> None:
        self.env = env
        self.size = size
        self._count = 0
        self._event = Event(env)

    def wait(self) -> Generator:
        self._count += 1
        event = self._event
        if self._count == self.size:
            self._count = 0
            self._event = Event(self.env)
            event.succeed()
        yield event


class RankContext:
    """Everything one rank sees: identity, clock, and communication."""

    def __init__(
        self,
        rank: int,
        comm: Communicator,
        layer: CompressionLayer,
        barrier: _Barrier,
    ) -> None:
        self.rank = rank
        self.comm = comm
        self.layer = layer
        self._barrier = barrier

    @property
    def size(self) -> int:
        return self.comm.size

    @property
    def env(self) -> Environment:
        return self.comm.env

    @property
    def device(self) -> BlueFieldDPU:
        return self.comm.nodes[self.rank]

    def wtime(self) -> float:
        """MPI_Wtime: the simulated clock."""
        return self.env.now

    # -- point-to-point ------------------------------------------------------

    def send(
        self,
        dest: int,
        data: Any,
        tag: int = 0,
        sim_bytes: float | None = None,
    ) -> Generator:
        """MPI_Send through the compression shim."""
        from repro.mpi import streaming

        nominal = _default_sim_bytes(data) if sim_bytes is None else float(sim_bytes)
        if streaming.wants_stream(self.layer, data, nominal):
            yield from streaming.stream_send(self, dest, data, tag, nominal)
            return
        with device_span(
            "mpi.send", self.device,
            rank=self.rank, dest=dest, tag=tag, sim_bytes=nominal,
        ) as span:
            payload, wire_bytes, meta = yield from self.layer.outbound(data, nominal)
            span.set_attr("wire_bytes", wire_bytes)
            yield from self.comm.send(
                self.rank, dest, tag, payload, wire_bytes, meta
            )

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> Generator:
        """MPI_Recv through the compression shim; returns the data."""
        from repro.mpi import streaming

        with device_span(
            "mpi.recv", self.device, rank=self.rank, source=source, tag=tag,
        ) as span:
            envlp = yield from self.comm.recv(self.rank, source, tag)
            span.set_attr("protocol", envlp.protocol.value)
            span.set_attr("wire_bytes", envlp.wire_bytes)
            if envlp.meta.get("stream"):
                data = yield from streaming.stream_recv(self, envlp)
            else:
                data = yield from self.layer.inbound(envlp.payload, envlp.meta)
        return data

    # -- non-blocking point-to-point ------------------------------------------

    def isend(
        self,
        dest: int,
        data: Any,
        tag: int = 0,
        sim_bytes: float | None = None,
    ):
        """MPI_Isend: start a send, return a Request."""
        return nonblocking.isend(self, dest, data, tag=tag, sim_bytes=sim_bytes)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """MPI_Irecv: start a receive, return a Request."""
        return nonblocking.irecv(self, source=source, tag=tag)

    def waitall(self, requests) -> Generator:
        """MPI_Waitall over Request handles; returns their values."""
        values = yield from nonblocking.waitall(self, requests)
        return values

    # -- collectives ----------------------------------------------------------

    def bcast(
        self,
        data: Any,
        root: int = 0,
        sim_bytes: float | None = None,
        algorithm: str = "binomial",
    ) -> Generator:
        result = yield from collectives.bcast(self, data, root, sim_bytes, algorithm)
        return result

    def barrier(self) -> Generator:
        yield from self._barrier.wait()

    def abort(self, reason: str) -> None:
        raise MpiAbortError(self.rank, reason)


@dataclass
class MpiJobResult:
    """Outcome of one simulated MPI job."""

    returns: list[Any]
    init_seconds: float  # MPI_Init duration (hosts PEDAL_init)
    elapsed_seconds: float  # job time after MPI_Init
    env: Environment
    layers: list[CompressionLayer]
    init_breakdowns: list[TimeBreakdown]


def run_mpi(
    rank_program: Callable[[RankContext], Generator],
    n_ranks: int,
    device_kind: str = "bf2",
    comm_config: CommConfig | None = None,
    devices: "list[BlueFieldDPU] | None" = None,
    env: Environment | None = None,
) -> MpiJobResult:
    """Run ``rank_program`` on ``n_ranks`` simulated DPU nodes.

    ``device_kind`` builds a homogeneous cluster (``"bf2"``/``"bf3"``);
    pass ``devices`` for a heterogeneous one.  The communication layer
    is configured by ``comm_config`` (RAW by default).
    """
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    env = env or Environment()
    cfg = comm_config or CommConfig()
    if devices is None:
        devices = [make_device(env, device_kind) for _ in range(n_ranks)]
    elif len(devices) != n_ranks:
        raise ValueError("devices list must match n_ranks")

    fabric = Fabric(env, devices)
    comm = Communicator(env, devices, fabric, cfg.eager_threshold)
    layers = [CompressionLayer(dev, cfg) for dev in devices]
    barrier = _Barrier(env, n_ranks)

    # MPI_Init: run every rank's init hook (PEDAL_init lives here).
    init_procs = [env.process(layer.mpi_init()) for layer in layers]
    breakdowns = env.run(until=env.all_of(init_procs))
    init_seconds = env.now

    contexts = [RankContext(r, comm, layers[r], barrier) for r in range(n_ranks)]
    procs = [env.process(rank_program(ctx), name=f"rank{ctx.rank}") for ctx in contexts]
    returns = env.run(until=env.all_of(procs))
    elapsed = env.now - init_seconds
    for layer in layers:
        layer.mpi_finalize()

    return MpiJobResult(
        returns=returns,
        init_seconds=init_seconds,
        elapsed_seconds=elapsed,
        env=env,
        layers=layers,
        init_breakdowns=breakdowns,
    )
