"""The tiny 3-byte PEDAL message header (paper §III-E, Fig. 5).

Layout: ``[0xFF, AlgoID, 0xFF]``.  The sentinel first/third bytes mark
the message as PEDAL-compressed; the second byte names the compression
design used so the receiver can select the matching decompressor.
AlgoID 0 denotes an uncompressed passthrough (a message PEDAL chose not
to compress, e.g. below the rendezvous threshold).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dpu.specs import Algo
from repro.errors import HeaderError
from repro.plan.designs import ALGO_FROM_ID, ALGO_IDS

__all__ = ["PedalHeader", "HEADER_SIZE"]

HEADER_SIZE = 3
_SENTINEL = 0xFF
PASSTHROUGH_ID = 0


@dataclass(frozen=True)
class PedalHeader:
    """Decoded PEDAL header."""

    algo: Algo | None  # None = uncompressed passthrough

    @property
    def is_compressed(self) -> bool:
        return self.algo is not None

    def encode(self) -> bytes:
        algo_id = PASSTHROUGH_ID if self.algo is None else ALGO_IDS[self.algo]
        return bytes([_SENTINEL, algo_id, _SENTINEL])

    @classmethod
    def for_algo(cls, algo: Algo) -> "PedalHeader":
        return cls(algo=algo)

    @classmethod
    def passthrough(cls) -> "PedalHeader":
        return cls(algo=None)

    @classmethod
    def decode(cls, message: bytes) -> "PedalHeader":
        """Parse the header off the front of ``message``."""
        if len(message) < HEADER_SIZE:
            raise HeaderError(
                f"message of {len(message)} bytes cannot hold a PEDAL header"
            )
        first, algo_id, third = message[0], message[1], message[2]
        if first != _SENTINEL or third != _SENTINEL:
            raise HeaderError(
                f"bad header sentinels 0x{first:02x}/0x{third:02x}"
            )
        header = _DECODED.get(algo_id)
        if header is None:
            raise HeaderError(f"unknown AlgoID {algo_id}")
        return header

    @staticmethod
    def looks_compressed(message: bytes) -> bool:
        """Cheap sentinel check without raising."""
        return (
            len(message) >= HEADER_SIZE
            and message[0] == _SENTINEL
            and message[2] == _SENTINEL
        )


# Every header decode() can return, built once (the header is frozen).
_DECODED = {PASSTHROUGH_ID: PedalHeader.passthrough(),
            **{i: PedalHeader.for_algo(a) for i, a in ALGO_FROM_ID.items()}}
