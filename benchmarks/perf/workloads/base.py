"""What every workload provides to the harness."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from inputs import Inputs

__all__ = ["RepAccount", "SZ3_ERROR_BOUND", "Workload", "digest_of",
           "device_counts", "sz3_within_bound"]

SZ3_ERROR_BOUND = 1e-4  # the paper's point-wise bound (PedalConfig default)


@dataclass
class RepAccount:
    """Everything the harness reads off one finished rep (untimed)."""

    ops: int                     # operations the rep attempted
    raw_bytes: int               # uncompressed side of every real codec stream
    packed_bytes: int            # compressed side of the same streams
    digest: str                  # sha256 over the rep's outputs
    refused: int = 0             # open-loop requests shed or failed by design
    sim: dict[str, float] = field(default_factory=dict)     # sim-clock metrics
    counts: dict[str, float] = field(default_factory=dict)  # per-layer counts


class Workload:
    """One named workload: seeded set-up, a timed body, untimed checks."""

    name = ""

    def __init__(self, inputs: Inputs, quick: bool = False) -> None:
        self.inputs = inputs
        self.quick = quick
        # Set by the worker on a traced run; ``rep`` stamps the current
        # op id on it so spans can be tied back to harness operations.
        self.recorder: Any = None

    def mark(self, op: Any) -> None:
        if self.recorder is not None:
            self.recorder.op = op

    def rep(self) -> Any:
        """The timed body; returns whatever verification needs."""
        raise NotImplementedError

    def account(self, out: Any) -> RepAccount:
        """Counts, bytes, sim metrics and an output digest for ``out``."""
        raise NotImplementedError

    def verify(self, out: Any) -> list[str]:
        """One message per operation of ``out`` that produced a wrong
        result (empty when everything checks out)."""
        raise NotImplementedError


def digest_of(parts: Iterable[Any]) -> str:
    """SHA-256 over byte strings, arrays and floats, in order."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(part.tobytes())
        elif isinstance(part, (bytes, bytearray, memoryview)):
            sha.update(part)
        else:
            sha.update(repr(part).encode())
    return sha.hexdigest()


def device_counts(devices: Iterable[Any]) -> dict[str, float]:
    """Sim-side busy time and job counts off the devices' public fields."""
    busy_engine = busy_soc = 0.0
    jobs = 0
    for device in devices:
        busy_engine += device.cengine.busy_seconds
        busy_soc += device.soc.busy_seconds
        jobs += device.cengine.jobs_completed
    return {
        "dev.cengine_busy_s": busy_engine,
        "dev.soc_busy_s": busy_soc,
        "dev.cengine_jobs": float(jobs),
    }


def sz3_within_bound(original: np.ndarray, restored: Any, hops: int = 1) -> bool:
    """Point-wise |restored - original| within ``hops`` SZ3 error bounds
    (an echoed array was quantised once per hop)."""
    if not isinstance(restored, np.ndarray) or restored.shape != original.shape:
        return False
    err = np.abs(restored.astype(np.float64) - original.astype(np.float64))
    # float32 representation error on top of the requested bound.
    slack = 4 * np.finfo(np.float32).eps * float(np.abs(original).max())
    return bool(err.max() <= hops * (SZ3_ERROR_BOUND + slack))
