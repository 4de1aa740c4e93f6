"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class.  Sub-hierarchies mirror the major
subsystems: codecs, the DOCA-like SDK, the PEDAL core, the simulated MPI
runtime, and the discrete-event simulator.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


# ---------------------------------------------------------------------------
# Codec errors
# ---------------------------------------------------------------------------

class CodecError(ReproError):
    """Base class for compression/decompression failures."""


class CorruptStreamError(CodecError):
    """The compressed stream violates its format specification."""


class ChecksumMismatchError(CorruptStreamError):
    """A stored integrity checksum does not match the recomputed value."""

    def __init__(self, kind: str, expected: int, actual: int) -> None:
        super().__init__(
            f"{kind} checksum mismatch: stored=0x{expected:08x} computed=0x{actual:08x}"
        )
        self.kind = kind
        self.expected = expected
        self.actual = actual


class OutputOverflowError(CodecError):
    """Decompressed output exceeded the caller-provided bound."""


# ---------------------------------------------------------------------------
# Streaming-container errors (repro.stream)
# ---------------------------------------------------------------------------

class StreamError(CodecError):
    """Base class for streaming Compressor/Decompressor failures."""


class StreamStateError(StreamError):
    """A streaming object was used out of protocol order (feed after
    flush, flush twice, reading a result before flush, ...)."""


class StreamCorruptError(StreamError, CorruptStreamError):
    """The container violates the RST1 framing specification (bad
    magic, unknown frame kind, impossible lengths, trailing garbage)."""


class StreamTruncatedError(StreamCorruptError):
    """The container ended mid-frame: more bytes were promised by the
    framing than were ever fed.  Raised at end-of-input by every RST1
    decoder — truncation is detectable only there, never by waiting."""


class StreamChecksumError(StreamError, ChecksumMismatchError):
    """A per-chunk or whole-stream CRC stored in the container does not
    match the recomputed value."""


class ErrorBoundViolation(CodecError):
    """A lossy codec produced reconstruction error above the configured bound."""


class UnsupportedDataError(CodecError):
    """The codec cannot handle the supplied data shape or dtype."""


# ---------------------------------------------------------------------------
# DOCA-like SDK errors
# ---------------------------------------------------------------------------

class DocaError(ReproError):
    """Base class for errors from the simulated DOCA SDK."""


class DocaNotInitializedError(DocaError):
    """A DOCA operation was attempted before session initialization."""


class DocaCapabilityError(DocaError):
    """The device's C-Engine does not support the requested operation."""


class DocaBufferError(DocaError):
    """Invalid buffer handle, exhausted inventory, or bad mapping."""


class DocaTransientError(DocaError):
    """A retryable DOCA failure (the job may succeed if resubmitted).

    ``sim_seconds`` records how long the failing operation occupied the
    hardware before the error surfaced, so retry layers can charge the
    wasted time to the right breakdown phase.
    """

    def __init__(self, message: str, sim_seconds: float = 0.0) -> None:
        super().__init__(message)
        self.sim_seconds = sim_seconds


class DocaJobError(DocaTransientError):
    """A submitted C-Engine job completed with a DOCA error code."""

    def __init__(self, message: str, code: int = 1,
                 sim_seconds: float = 0.0) -> None:
        super().__init__(f"{message} (DOCA_ERROR {code})", sim_seconds)
        self.code = code


class DocaTimeoutError(DocaTransientError):
    """A C-Engine job stalled past the caller's completion deadline."""


class DocaInitError(DocaTransientError):
    """DOCA device/context/workq bring-up failed."""


# ---------------------------------------------------------------------------
# PEDAL core errors
# ---------------------------------------------------------------------------

class PedalError(ReproError):
    """Base class for errors raised by the PEDAL library core."""


class PedalNotInitializedError(PedalError):
    """PEDAL_compress/PEDAL_decompress called before PEDAL_init."""


class UnknownDesignError(PedalError):
    """An unknown compression design or AlgoID was requested."""


class HeaderError(PedalError):
    """The 3-byte PEDAL message header is malformed."""


class PoolLifecycleError(PedalError):
    """A memory-pool buffer was released twice, released to a pool that
    never issued it, or the pool was drained with buffers outstanding."""


# ---------------------------------------------------------------------------
# Serving-layer errors
# ---------------------------------------------------------------------------

class ServeError(ReproError):
    """Base class for errors raised by the serving gateway."""


class AdmissionError(ServeError):
    """A request was submitted to a gateway that cannot accept it
    (e.g. waiting on a ticket the gateway shed)."""


class NoLatencySamplesError(ServeError, ValueError):
    """A latency percentile was requested before any request completed.

    Subclasses :class:`ValueError` for backward compatibility with
    callers that treated the empty-sample case as a value error.
    """


class NoCapableWorkerError(ServeError):
    """No live worker in the fleet can serve the requested (direction,
    algo) — either every capable worker died or the pool is empty.

    Replaces the bare ``IndexError``/``ZeroDivisionError`` routers used
    to raise when the capable set was empty, so gateway failure paths
    can distinguish a routing dead-end from a programming error.
    """

    def __init__(self, direction: str = "", algo: object = None,
                 message: str = "") -> None:
        if not message:
            what = f"{direction} {getattr(algo, 'name', algo)}".strip()
            message = f"no live worker capable of {what or 'request'}"
        super().__init__(message)
        self.direction = direction
        self.algo = algo


class WorkerDiedError(ServeError):
    """The worker executing a batch died before the batch completed.

    Carries enough context for failover layers to re-dispatch the batch
    to a surviving replica.
    """

    def __init__(self, worker_name: str) -> None:
        super().__init__(f"worker {worker_name} died mid-batch")
        self.worker_name = worker_name


# ---------------------------------------------------------------------------
# Cluster errors
# ---------------------------------------------------------------------------

class ClusterError(ReproError):
    """Base class for errors raised by the sharded serving cluster."""


class ShardMapError(ClusterError):
    """Invalid shard-map operation (unknown worker, empty ring, stale epoch)."""


# ---------------------------------------------------------------------------
# Simulator errors
# ---------------------------------------------------------------------------

class SimulationError(ReproError):
    """Base class for discrete-event simulation errors."""


class SimDeadlockError(SimulationError):
    """The event queue drained while processes were still waiting."""


# ---------------------------------------------------------------------------
# MPI errors
# ---------------------------------------------------------------------------

class MpiError(ReproError):
    """Base class for simulated-MPI errors."""


class MpiConfigError(MpiError):
    """The communication-layer configuration is invalid (e.g. a negative
    ``eager_threshold`` or a ``stream_depth`` below 1)."""


class MpiAbortError(MpiError):
    """A rank called MPI_Abort or raised inside the simulated job."""

    def __init__(self, rank: int, reason: str) -> None:
        super().__init__(f"rank {rank} aborted: {reason}")
        self.rank = rank
        self.reason = reason


class MpiTruncationError(MpiError):
    """An incoming message is larger than the posted receive buffer."""
