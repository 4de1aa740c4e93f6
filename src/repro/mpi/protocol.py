"""Point-to-point message protocols: eager vs rendezvous.

MPICH-style behaviour: messages at or below the eager threshold are
pushed to the receiver immediately (one wire transfer, buffered at the
destination if no receive is posted); larger messages handshake —
Request-To-Send, wait for a matching posted receive, Clear-To-Send,
then the payload moves directly into the destination buffer.

PEDAL "operates on MPI's Rendezvous (RNDV) protocol for larger message
sizes rather than the Eager protocol" (paper §IV), because compression
latency swamps small messages; the integration layer consults
:func:`should_compress` accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any

from repro.obs import get_metrics

__all__ = [
    "EAGER_THRESHOLD_BYTES",
    "Protocol",
    "Envelope",
    "protocol_for",
    "should_compress",
]

# MPICH's default netmod eager/rendezvous switchover is 64 KiB.
EAGER_THRESHOLD_BYTES = 64 * 1024


class Protocol(str, Enum):
    EAGER = "eager"
    RENDEZVOUS = "rendezvous"


@dataclass
class Envelope:
    """One in-flight message (matching key + payload + wire metadata)."""

    source: int
    dest: int
    tag: int
    protocol: Protocol
    payload: Any
    wire_bytes: float  # simulated bytes that cross the fabric
    meta: dict  # simulation bookkeeping (e.g. nominal uncompressed size)
    cts: Any = None  # CTS event, rendezvous only
    data_ready: Any = None  # payload-arrived event, rendezvous only


def protocol_for(sim_bytes: float, eager_threshold: int = EAGER_THRESHOLD_BYTES) -> Protocol:
    """Protocol selection by *pre-compression* (sim) message size.

    Convention: both deciders — this one and :func:`should_compress` —
    operate on the same byte domain, the uncompressed size the sender
    holds *before* the shim runs.  Deciding from post-compression wire
    bytes instead would let a message that compresses below the
    threshold flip from rendezvous to eager *after* the compress
    decision was made, producing compressed-eager traffic the receiver
    never handshakes for.  At exactly ``eager_threshold`` the message
    is eager (and uncompressed); one byte above it is rendezvous (and
    compression-eligible).
    """
    proto = Protocol.EAGER if sim_bytes <= eager_threshold else Protocol.RENDEZVOUS
    metrics = get_metrics()
    if metrics.recording:
        metrics.inc(f"mpi.protocol.{proto.value}")
    return proto


def should_compress(sim_bytes: float, rndv_threshold: int = EAGER_THRESHOLD_BYTES) -> bool:
    """PEDAL's rule: compress only messages on the rendezvous path.

    Same byte domain as :func:`protocol_for` (pre-compression size), so
    the two decisions can never disagree when the thresholds match —
    :class:`~repro.mpi.pedal_integration.CommConfig` has one
    ``eager_threshold`` and passes it to both.
    """
    decision = sim_bytes > rndv_threshold
    metrics = get_metrics()
    if metrics.recording:
        metrics.inc(
            "pedal.compress_eligible" if decision else "pedal.compress_skipped"
        )
    return decision
