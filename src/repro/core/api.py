"""The PEDAL context and its unified APIs (paper §III-D, Listing 1).

:class:`PedalContext` binds a BlueField device to the PEDAL runtime
state (open DOCA session, buffer inventory, memory pool).  Its
``init`` / ``compress`` / ``decompress`` / ``finalize`` methods are
*simulation generators*: they perform the real codec work inline (real
bytes in, real bytes out) and charge the simulated hardware for the
paper-calibrated costs, so one call yields both the artifact and its
(simulated) performance.

Two sizes flow through every call:

* the *actual* byte sizes of the Python payloads (what the codecs see);
* the *simulated* sizes (``sim_bytes``), defaulting to actual, that the
  cost model charges for — the bench harness sets these to the paper's
  nominal dataset sizes while compressing scaled-down synthetic data
  (DESIGN.md §1, "two time domains").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from repro.core.mempool import MemoryPool
from repro.doca.sdk import DocaSession
from repro.dpu.device import BlueFieldDPU
from repro.dpu.specs import Algo, Direction
from repro.errors import PedalNotInitializedError, UnknownDesignError
from repro.faults.policy import EngineFallback, RetryPolicy, init_with_retry
from repro.obs import NULL_SPAN, device_span, get_metrics, get_tracer
from repro.plan.charges import (  # phase names are re-exported from here
    PHASE_COMP,
    PHASE_DECOMP,
    PHASE_HEADER,
    PHASE_INIT,
    PHASE_PREP,
    PlanEntry,
    execute,
    plan_entry,
)
from repro.plan.codecs import CodecConfig, real_compress, real_decompress
from repro.plan.designs import CompressionDesign, Placement, parse_design_spec
from repro.plan.header import HEADER_SIZE, PedalHeader
from repro.plan.registry import ResolvedDesign, resolve
from repro.select import PathDecision, PathSelector
from repro.sim import TimeBreakdown

__all__ = [
    "PATH_AUTO",
    "PedalConfig",
    "PedalContext",
    "CompressResult",
    "DecompressResult",
    "PEDAL_init",
    "PEDAL_compress",
    "PEDAL_decompress",
    "PEDAL_finalize",
]

# The adaptive-dispatch sentinel for ``path`` / ``placement`` arguments.
PATH_AUTO = "auto"


def _coerce_path(path: "str | Placement | None") -> "str | Placement | None":
    """Normalize a ``path`` argument: None, ``"auto"``, or a Placement."""
    if path is None or isinstance(path, Placement):
        return path
    lowered = str(path).lower()
    if lowered == PATH_AUTO:
        return PATH_AUTO
    try:
        return Placement(lowered)
    except ValueError:
        raise UnknownDesignError(
            f"unknown path {path!r}; expected 'auto', 'soc', or 'cengine'"
        ) from None


def _payload_nbytes(data: Any) -> int:
    """Actual byte size of a payload (ndarray or bytes-like)."""
    return data.nbytes if hasattr(data, "nbytes") else len(data)


@dataclass(frozen=True)
class PedalConfig:
    """PEDAL runtime configuration."""

    codecs: CodecConfig = field(default_factory=CodecConfig)
    # Pool sizing: buffers pre-mapped at PEDAL_init (paper §III-C).
    pool_buffers: int = 4
    max_message_bytes: int = 128 << 20
    # Engine-job retry budget + backoff; past it, jobs escalate to the
    # SoC pipeline (runtime mirror of the capability fallback).
    retry: RetryPolicy = field(default_factory=RetryPolicy)


@dataclass
class CompressResult:
    """Everything produced by one PEDAL_compress call."""

    message: bytes  # PEDAL header + compressed payload
    design: CompressionDesign
    resolved: ResolvedDesign
    original_bytes: int
    compressed_bytes: int  # len(message)
    sim_original_bytes: float
    sim_compressed_bytes: float
    breakdown: TimeBreakdown

    @property
    def ratio(self) -> float:
        """Paper convention: original / compressed (header excluded)."""
        return self.original_bytes / max(self.compressed_bytes - HEADER_SIZE, 1)

    @property
    def sim_seconds(self) -> float:
        return self.breakdown.total()


@dataclass
class DecompressResult:
    """Everything produced by one PEDAL_decompress call."""

    data: Any  # bytes for lossless designs, ndarray for SZ3
    algo: Algo | None
    resolved: ResolvedDesign | None
    breakdown: TimeBreakdown

    @property
    def sim_seconds(self) -> float:
        return self.breakdown.total()


class PedalContext:
    """PEDAL bound to one DPU (sender- or receiver-side)."""

    def __init__(self, device: BlueFieldDPU, config: PedalConfig | None = None) -> None:
        self.device = device
        self.config = config or PedalConfig()
        self.session = DocaSession(device)
        # Cost-model dispatch for path="auto" (amortized: this context
        # hoists DOCA init + buffer mapping, so steady-state ops carry
        # no fixed setup cost).
        self.selector = PathSelector(device)
        self.pool: MemoryPool | None = None
        self.init_breakdown: TimeBreakdown | None = None
        self._initialized = False
        # Cleared when DOCA bring-up fails past the retry budget; every
        # design then resolves to the SoC (runtime capability fallback).
        self._engine_available = True

    @property
    def is_initialized(self) -> bool:
        return self._initialized

    @property
    def engine_available(self) -> bool:
        """False once DOCA init gave up and the context runs SoC-only."""
        return self._engine_available

    def _require_init(self) -> None:
        if not self._initialized:
            raise PedalNotInitializedError(
                "PEDAL context is not initialized; call init() (PEDAL_init) first"
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def init(self) -> Generator:
        """``PEDAL_init``: hoist DOCA init + buffer prep (paper §III-C).

        Returns the initialization :class:`TimeBreakdown`.  Integrated
        into ``MPI_Init`` by the MPICH co-design (paper §IV).

        DOCA bring-up failures (injected by :mod:`repro.faults`) are
        retried under the configured :class:`RetryPolicy`; if every
        attempt fails the context comes up *SoC-only* — initialization
        still succeeds, but every design resolves to the SoC until a
        fresh context is created (counted as ``faults.fallbacks``).
        """
        breakdown = TimeBreakdown()
        if not self._initialized:
            with device_span(
                "pedal.init", self.device,
                device=self.device.name,
                pool_buffers=self.config.pool_buffers,
            ) as span:
                breakdown.bind(span)
                try:
                    yield from init_with_retry(
                        self.device, self.config.retry, breakdown,
                        PHASE_INIT, self.session.open,
                    )
                except EngineFallback:
                    self._engine_available = False
                    span.set_attr("engine_available", False)
                    metrics = get_metrics()
                    if metrics.recording:
                        metrics.inc("faults.fallbacks")
                else:
                    inventory, inv_seconds = (
                        yield from self.session.create_inventory()
                    )
                    breakdown.add(PHASE_PREP, inv_seconds)
                    self.pool = MemoryPool(
                        inventory, self.config.max_message_bytes
                    )
                    prewarm_seconds = yield from self.pool.prewarm(
                        self.config.pool_buffers
                    )
                    breakdown.add(PHASE_PREP, prewarm_seconds)
            self._initialized = True
            self.init_breakdown = breakdown
        return breakdown

    def finalize(self) -> Generator:
        """``PEDAL_finalize``: drain the pool, close the session."""
        if self._initialized:
            with device_span("pedal.finalize", self.device,
                             device=self.device.name):
                if self.pool is not None:  # absent on an SoC-only context
                    self.pool.drain()
                self.session.close()
            self._initialized = False
            self._engine_available = True
        return
        yield  # pragma: no cover - generator marker

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------

    def _select_path(
        self,
        algo: Algo,
        direction: Direction,
        sim_bytes: float,
        stage_bytes: float | None = None,
    ) -> PathDecision:
        """One cost-model dispatch decision, with select.* accounting."""
        decision = self.selector.choose(
            algo, direction, sim_bytes,
            amortized=True,            # this context hoisted init/buffers
            stage_bytes=stage_bytes,
            allow_engine=self._engine_available,
        )
        metrics = get_metrics()
        if metrics.recording:
            metrics.inc("select.decisions")
            metrics.inc(f"select.path.{decision.path}")
            if decision.from_cache:
                metrics.inc("select.cache_hits")
        return decision

    def compress(
        self,
        data: Any,
        design: "str | Algo | CompressionDesign",
        sim_bytes: float | None = None,
        path: "str | Placement | None" = None,
    ) -> Generator:
        """``PEDAL_compress``: compress ``data`` under a design.

        ``data`` is bytes-like (lossless designs) or a float ndarray
        (SZ3).  Returns a :class:`CompressResult` whose ``message``
        carries the 3-byte PEDAL header.

        ``design`` is a full (algorithm, placement) design — an
        instance or figure-legend label — or a *bare algorithm*
        (``Algo`` or e.g. ``"deflate"``).  ``path`` overrides where the
        op runs: ``"soc"`` / ``"cengine"`` / a :class:`Placement`
        forces that path, ``"auto"`` asks the cost-model selector for
        the cheapest capable path at this op's simulated size, and
        ``None`` (default) keeps the design's placement — or ``"auto"``
        when the spec was a bare algorithm.
        """
        self._require_init()
        algo, spec_placement = parse_design_spec(design)
        mode = _coerce_path(path)
        if mode is None:
            mode = PATH_AUTO if spec_placement is None else spec_placement
        result = yield from compress_op(
            self.device, "pedal.compress", algo, mode, data, sim_bytes,
            self.config.codecs, self.config.retry, pool=self.pool,
            engine_ok=self._engine_available, select=self._select_path,
        )
        return result

    # ------------------------------------------------------------------
    # Decompression
    # ------------------------------------------------------------------

    def decompress(
        self,
        message: bytes,
        placement: "str | Placement" = Placement.CENGINE,
        sim_bytes: float | None = None,
    ) -> Generator:
        """``PEDAL_decompress``: decode a PEDAL message.

        The header's AlgoID selects the decompressor; ``placement`` is
        the *receiver's* engine preference (subject to the same
        capability fallback) — or ``"auto"``, which asks the cost-model
        selector for the cheapest capable path (decompression runs the
        codec first, so SZ3's auto decision sees the *measured*
        lossless-stage size).  ``sim_bytes`` is the simulated
        uncompressed size (the cost-model convention for decompression
        throughput); defaults to the actual decoded size.
        """
        self._require_init()
        mode = _coerce_path(placement)
        if mode is None:
            raise UnknownDesignError("placement must not be None")
        result = yield from decompress_op(
            self.device, "pedal.decompress", message, mode, sim_bytes,
            self.config.retry, pool=self.pool,
            engine_ok=self._engine_available, select=self._select_path,
        )
        return result


# ---------------------------------------------------------------------------
# The op body PEDAL and the naive baseline share
# ---------------------------------------------------------------------------
#
# ``hoisted`` / ``pool`` / ``engine_ok`` / ``select`` are what a PEDAL
# context carries from one op to the next; the naive baseline
# (:mod:`repro.core.baseline`) passes none of them.

def compress_op(
    device: BlueFieldDPU,
    span_name: str,
    algo: Algo,
    mode: "str | Placement",
    data: Any,
    sim_bytes: float | None,
    codecs: CodecConfig,
    retry: RetryPolicy,
    hoisted: bool = True,
    pool: MemoryPool | None = None,
    engine_ok: bool = True,
    select: "Callable[..., PathDecision] | None" = None,
) -> Generator:
    """Compress ``data`` for real, charge the op's plan, frame the message."""
    decision = None
    if mode is PATH_AUTO:
        # SZ3's measured entropy-stage size is only known after the
        # codec runs, and the codec stream depends on the placement
        # — so auto decides from the model's stage estimate.
        decision = select(algo, Direction.COMPRESS, float(
            _payload_nbytes(data) if sim_bytes is None else sim_bytes
        ))
        mode = decision.placement
    entry = plan_entry(device, algo, mode, Direction.COMPRESS, hoisted,
                       engine_ok)
    dsg = entry.design
    real = real_compress(dsg, data, codecs)
    sim_in = float(real.original_bytes if sim_bytes is None else sim_bytes)
    scale = sim_in / real.original_bytes if real.original_bytes else 1.0
    stage = real.cengine_stage_bytes
    resolved, breakdown, span = _open_op(
        device, span_name, entry, Direction.COMPRESS, sim_in,
        real.original_bytes, select is not None, decision,
    )
    with span:
        payload, engine_up = yield from execute(
            device,
            entry.plan(sim_in, None if stage is None else stage * scale),
            retry, breakdown,
            # The SZ3 hybrid's engine job carries the lossless stage, not
            # the message payload, so there is nothing of it to verify.
            None if algo is Algo.SZ3 else real.payload,
            pool,
        )
    if not engine_up:   # a per-op DOCA bring-up gave up: the op ran SoC-side
        resolved = resolve(device, dsg, force_soc=True)
    message = entry.header + (
        real.payload if payload is None else payload
    )
    _count_codec_bytes(algo, real.original_bytes, len(message))
    return CompressResult(
        message=message,
        design=dsg,
        resolved=resolved,
        original_bytes=real.original_bytes,
        compressed_bytes=len(message),
        sim_original_bytes=sim_in,
        sim_compressed_bytes=len(message) * scale,
        breakdown=breakdown,
    )


def decompress_op(
    device: BlueFieldDPU,
    span_name: str,
    message: bytes,
    mode: "str | Placement",
    sim_bytes: float | None,
    retry: RetryPolicy,
    hoisted: bool = True,
    pool: MemoryPool | None = None,
    engine_ok: bool = True,
    select: "Callable[..., PathDecision] | None" = None,
) -> Generator:
    """Decode a PEDAL message for real and charge the op's plan."""
    header = PedalHeader.decode(message)
    payload = message[HEADER_SIZE:]
    if not header.is_compressed:
        return DecompressResult(
            data=payload, algo=None, resolved=None, breakdown=TimeBreakdown()
        )
    algo = header.algo
    assert algo is not None
    data, stage_bytes = real_decompress(algo, payload)
    actual_out = _payload_nbytes(data)
    sim_out = float(actual_out if sim_bytes is None else sim_bytes)
    scale = sim_out / actual_out if actual_out else 1.0
    if stage_bytes is not None:
        stage_bytes *= scale
    decision = None
    if mode is PATH_AUTO:
        decision = select(algo, Direction.DECOMPRESS, sim_out, stage_bytes)
        mode = decision.placement
    entry = plan_entry(device, algo, mode, Direction.DECOMPRESS, hoisted,
                       engine_ok)
    resolved, breakdown, span = _open_op(
        device, span_name, entry, Direction.DECOMPRESS, sim_out, actual_out,
        select is not None, decision,
    )
    with span:
        verified, engine_up = yield from execute(
            device, entry.plan(sim_out, stage_bytes),
            retry, breakdown, data if isinstance(data, bytes) else None, pool,
        )
    if not engine_up:
        resolved = resolve(device, entry.design, force_soc=True)
    _count_codec_bytes(algo, len(payload), actual_out)
    return DecompressResult(
        data=data if verified is None else verified,
        algo=algo, resolved=resolved, breakdown=breakdown,
    )


def _open_op(
    device: BlueFieldDPU,
    span_name: str,
    entry: PlanEntry,
    direction: Direction,
    sim_bytes: float,
    actual_bytes: int,
    selects: bool,
    decision: PathDecision | None,
) -> "tuple[ResolvedDesign, TimeBreakdown, Any]":
    """Resolve the op's design on the device and open its span, with its
    breakdown bound to it; returns ``(resolved, breakdown, span)``.  An
    owner that ``selects`` paths records how this one was picked."""
    resolved = entry.resolve()
    breakdown = TimeBreakdown()
    if not get_tracer().recording:   # the attributes are ~5 % of an op's host time
        return resolved, breakdown, NULL_SPAN
    span = device_span(
        span_name, device,
        device=device.name,
        algo=entry.design.algo.value,
        engine=resolved.engine_for(direction),
        direction=direction.value,
        sim_bytes=sim_bytes,
        actual_bytes=actual_bytes,
    )
    if selects:
        span.set_attr("path_mode", "forced" if decision is None else PATH_AUTO)
    if decision is not None:
        span.set_attr("select_crossover_bytes", decision.crossover_bytes)
        span.set_attr("select_predicted_s", decision.predicted_seconds)
    return resolved, breakdown.bind(span), span


def _count_codec_bytes(algo: Algo, bytes_in: int, bytes_out: int) -> None:
    metrics = get_metrics()
    if metrics.recording:
        metrics.inc(f"codec.{algo.value}.bytes_in", bytes_in)
        metrics.inc(f"codec.{algo.value}.bytes_out", bytes_out)


# ---------------------------------------------------------------------------
# Paper-faithful function API (Listing 1)
# ---------------------------------------------------------------------------

def PEDAL_init(ctx: PedalContext) -> Generator:
    """``int PEDAL_init(void *user_ctx)`` — initialise the context."""
    result = yield from ctx.init()
    return result


def PEDAL_compress(
    ctx: PedalContext,
    data: Any,
    design: "str | Algo | CompressionDesign",
    sim_bytes: float | None = None,
    path: "str | Placement | None" = None,
) -> Generator:
    """``void *PEDAL_compress(...)`` — compress a message buffer."""
    result = yield from ctx.compress(data, design, sim_bytes, path=path)
    return result


def PEDAL_decompress(
    ctx: PedalContext,
    message: bytes,
    placement: "str | Placement" = Placement.CENGINE,
    sim_bytes: float | None = None,
) -> Generator:
    """``void PEDAL_decompress(...)`` — decompress a message buffer."""
    result = yield from ctx.decompress(message, placement, sim_bytes)
    return result


def PEDAL_finalize(ctx: PedalContext) -> Generator:
    """``int PEDAL_finalize(void *user_ctx)`` — tear the context down."""
    yield from ctx.finalize()
