"""Request/response/ticket types for the serving gateway."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.dpu.specs import Algo, Direction
from repro.errors import AdmissionError

if TYPE_CHECKING:
    from repro.sim.engine import Event

__all__ = ["ServeRequest", "ServeResponse", "ServeTicket", "DEFAULT_TENANT"]

#: The tenant an untenanted request is accounted (and sharded) under.
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class ServeRequest:
    """One client message for the gateway.

    ``payload`` is the real bytes the codec sees (raw data on the
    compress direction, a DEFLATE stream on decompress); ``sim_bytes``
    is the nominal *uncompressed* size the cost model charges for —
    the same two-domain convention the rest of the runtime uses.

    ``tenant`` (optional) names the client the request belongs to; the
    telemetry plane records latency/goodput into per-tenant labeled
    registries so the SLO monitor can burn budgets per tenant.  None
    counts as :data:`DEFAULT_TENANT`.

    ``algo`` picks the lossless codec (DEFLATE, LZ4, or the adaptive
    -context ``ac`` coder).  Mixed-algo traffic batches separately per
    (direction, algo) so every batch stays a single engine job.
    """

    direction: Direction
    payload: bytes
    sim_bytes: float | None = None
    req_id: object = None
    tenant: str | None = None
    algo: Algo = Algo.DEFLATE

    def __init__(self, direction: Direction, payload: bytes,
                 sim_bytes: "float | None" = None, req_id: object = None,
                 tenant: "str | None" = None,
                 algo: Algo = Algo.DEFLATE) -> None:
        if sim_bytes is not None and sim_bytes < 0:
            raise ValueError(f"negative sim_bytes {sim_bytes}")
        # What the generated frozen __init__ does through one
        # object.__setattr__ per field, at a third of the cost: one
        # request is built per arrival.  Instances stay frozen.
        fields = self.__dict__
        fields["direction"] = direction
        fields["payload"] = payload
        fields["sim_bytes"] = sim_bytes
        fields["req_id"] = req_id
        fields["tenant"] = tenant
        fields["algo"] = algo


@dataclass(frozen=True)
class ServeResponse:
    """Completion record handed back through a request's ticket."""

    req_id: object
    direction: Direction
    payload: bytes          # compressed (or decompressed) output bytes
    device: str             # device the batch executed on
    engine: str             # "cengine" | "soc" (post work-steal truth)
    accepted_s: float       # sim time the request was admitted
    completed_s: float      # sim time its batch drained
    batch_id: int
    batch_size: int

    def __init__(self, req_id: object, direction: Direction, payload: bytes,
                 device: str, engine: str, accepted_s: float,
                 completed_s: float, batch_id: int, batch_size: int) -> None:
        # Direct instance-dict stores, as in ServeRequest.__init__: one
        # response is built per completed request.
        fields = self.__dict__
        fields["req_id"] = req_id
        fields["direction"] = direction
        fields["payload"] = payload
        fields["device"] = device
        fields["engine"] = engine
        fields["accepted_s"] = accepted_s
        fields["completed_s"] = completed_s
        fields["batch_id"] = batch_id
        fields["batch_size"] = batch_size

    @property
    def latency_s(self) -> float:
        return self.completed_s - self.accepted_s


class ServeTicket:
    """Handle to one submitted request (awaitable from any process).

    A shed request (admission control refused it) still gets a ticket so
    callers can branch on ``accepted`` — but waiting on a shed ticket is
    a programming error and raises :class:`~repro.errors.AdmissionError`
    immediately: the gateway will never complete it.
    """

    __slots__ = ("request", "accepted", "_event")

    def __init__(self, request: ServeRequest, event: "Event | None") -> None:
        self.request = request
        self.accepted = event is not None
        self._event = event

    @property
    def shed(self) -> bool:
        return not self.accepted

    @property
    def event(self) -> "Event":
        if self._event is None:
            raise AdmissionError(
                "request was shed by admission control; no completion event"
            )
        return self._event

    @property
    def done(self) -> bool:
        return self._event is not None and self._event.processed

    def wait(self) -> Generator:
        """Yield until the request completes; returns its
        :class:`ServeResponse`."""
        response = yield self.event
        return response
