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
from typing import Any, Generator

from repro.core.codecs import CodecConfig, real_compress, real_decompress
from repro.core.designs import CompressionDesign, Placement, parse_design_spec
from repro.core.header import HEADER_SIZE, PedalHeader
from repro.core.mempool import MemoryPool
from repro.core.registry import ResolvedDesign, cengine_core_algo, resolve
from repro.doca.sdk import DocaSession
from repro.dpu.device import BlueFieldDPU
from repro.dpu.specs import Algo, Direction
from repro.errors import (
    DocaInitError,
    PedalNotInitializedError,
    UnknownDesignError,
)
from repro.faults.policy import (
    EngineFallback,
    RetryPolicy,
    backoff_wait,
    engine_job_with_retry,
)
from repro.obs import device_span, get_metrics
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

# Phase names used in breakdowns (Fig. 7 / Fig. 9 legends).
PHASE_INIT = "doca_init"
# The adaptive-dispatch sentinel for ``path`` / ``placement`` arguments.
PATH_AUTO = "auto"
PHASE_PREP = "buffer_prep"
PHASE_COMP = "compression"
PHASE_DECOMP = "decompression"
PHASE_HEADER = "header_trailer"


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
            policy = self.config.retry
            metrics = get_metrics()
            with device_span(
                "pedal.init", self.device,
                device=self.device.name,
                pool_buffers=self.config.pool_buffers,
            ) as span:
                breakdown.bind(span)
                attempts = 0
                while True:
                    attempts += 1
                    try:
                        init_seconds = yield from self.session.open()
                    except DocaInitError as exc:
                        breakdown.add(PHASE_INIT, exc.sim_seconds)
                        if metrics.recording:
                            metrics.inc("faults.retries")
                        if attempts >= policy.max_attempts:
                            self._engine_available = False
                            span.set_attr("engine_available", False)
                            if metrics.recording:
                                metrics.inc("faults.fallbacks")
                                metrics.inc("faults.init_giveups")
                            break
                        yield from backoff_wait(
                            self.device, policy, attempts, breakdown
                        )
                        continue
                    breakdown.add(PHASE_INIT, init_seconds)
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
                    break
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
        sim_in_hint = float(
            _payload_nbytes(data) if sim_bytes is None else sim_bytes
        )
        decision: PathDecision | None = None
        if mode is PATH_AUTO:
            # SZ3's measured entropy-stage size is only known after the
            # codec runs, and the codec stream depends on the placement
            # — so auto decides from the model's stage estimate.
            decision = self._select_path(algo, Direction.COMPRESS, sim_in_hint)
            placement = decision.placement
        else:
            placement = mode
        dsg = CompressionDesign(algo, placement)
        resolved = resolve(self.device, dsg,
                           force_soc=not self._engine_available)
        real = real_compress(dsg, data, self.config.codecs)
        sim_in = float(real.original_bytes if sim_bytes is None else sim_bytes)
        scale = sim_in / real.original_bytes if real.original_bytes else 1.0

        breakdown = TimeBreakdown()
        with device_span(
            "pedal.compress", self.device,
            device=self.device.name,
            algo=dsg.algo.value,
            engine=resolved.engine_for(Direction.COMPRESS),
            direction=Direction.COMPRESS.value,
            sim_bytes=sim_in,
            actual_bytes=real.original_bytes,
            path_mode=PATH_AUTO if decision is not None else "forced",
        ) as span:
            if decision is not None:
                span.set_attr("select_crossover_bytes",
                              decision.crossover_bytes)
                span.set_attr("select_predicted_s",
                              decision.predicted_seconds)
            breakdown.bind(span)
            if dsg.algo is Algo.SZ3:
                yield from self._sim_sz3(
                    Direction.COMPRESS, dsg, resolved, sim_in,
                    None if real.cengine_stage_bytes is None
                    else real.cengine_stage_bytes * scale,
                    breakdown,
                )
                payload = real.payload
            else:
                payload = yield from self._sim_lossless(
                    Direction.COMPRESS, dsg, resolved, sim_in, breakdown,
                    payload=real.payload,
                )

        header = PedalHeader.for_algo(dsg.algo).encode()
        message = header + payload
        metrics = get_metrics()
        if metrics.recording:
            metrics.inc(f"codec.{dsg.algo.value}.bytes_in", real.original_bytes)
            metrics.inc(f"codec.{dsg.algo.value}.bytes_out", len(message))
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
        header = PedalHeader.decode(message)
        payload = message[HEADER_SIZE:]
        breakdown = TimeBreakdown()
        if not header.is_compressed:
            return DecompressResult(
                data=payload, algo=None, resolved=None, breakdown=breakdown
            )

        algo = header.algo
        assert algo is not None
        data, stage_bytes = real_decompress(algo, payload)
        actual_out = data.nbytes if hasattr(data, "nbytes") else len(data)
        sim_out = float(actual_out if sim_bytes is None else sim_bytes)
        scale = sim_out / actual_out if actual_out else 1.0

        decision: PathDecision | None = None
        if mode is PATH_AUTO:
            decision = self._select_path(
                algo, Direction.DECOMPRESS, sim_out,
                stage_bytes=None if stage_bytes is None
                else stage_bytes * scale,
            )
            placement = decision.placement
        else:
            placement = mode

        from repro.core.designs import CompressionDesign as _CD

        dsg = _CD(algo, placement)
        resolved = resolve(self.device, dsg,
                           force_soc=not self._engine_available)
        with device_span(
            "pedal.decompress", self.device,
            device=self.device.name,
            algo=algo.value,
            engine=resolved.engine_for(Direction.DECOMPRESS),
            direction=Direction.DECOMPRESS.value,
            sim_bytes=sim_out,
            actual_bytes=actual_out,
            path_mode=PATH_AUTO if decision is not None else "forced",
        ) as span:
            if decision is not None:
                span.set_attr("select_crossover_bytes",
                              decision.crossover_bytes)
                span.set_attr("select_predicted_s",
                              decision.predicted_seconds)
            breakdown.bind(span)
            if algo is Algo.SZ3:
                yield from self._sim_sz3(
                    Direction.DECOMPRESS, dsg, resolved, sim_out,
                    None if stage_bytes is None else stage_bytes * scale,
                    breakdown,
                )
            else:
                out = yield from self._sim_lossless(
                    Direction.DECOMPRESS, dsg, resolved, sim_out, breakdown,
                    payload=data if isinstance(data, bytes) else None,
                )
                if out is not None:
                    data = out
        metrics = get_metrics()
        if metrics.recording:
            metrics.inc(f"codec.{algo.value}.bytes_in", len(payload))
            metrics.inc(f"codec.{algo.value}.bytes_out", actual_out)
        return DecompressResult(
            data=data, algo=algo, resolved=resolved, breakdown=breakdown
        )

    # ------------------------------------------------------------------
    # Simulated-time choreography
    # ------------------------------------------------------------------

    def _sim_lossless(
        self,
        direction: Direction,
        dsg: CompressionDesign,
        resolved: ResolvedDesign,
        sim_bytes: float,
        breakdown: TimeBreakdown,
        payload: "bytes | None" = None,
    ) -> Generator:
        """Charge hardware for a DEFLATE/zlib/LZ4 op under ``resolved``.

        Returns ``payload`` — normally unchanged; under fault injection
        the engine path verifies it against corruption and, on
        persistent failure, escalates to the SoC pipeline.
        """
        device = self.device
        soc = device.soc
        phase = PHASE_COMP if direction is Direction.COMPRESS else PHASE_DECOMP
        engine = resolved.engine_for(direction)

        if engine == "soc" and dsg.placement is Placement.SOC:
            # Native SoC design: the calibrated throughput covers the
            # whole algorithm (zlib's includes its checksum work).
            seconds = soc.codec_time(dsg.algo, direction, sim_bytes)
            yield from soc.run(seconds)
            breakdown.add(phase, seconds)
            return payload

        if engine == "soc":
            yield from self._soc_fallback_pipeline(
                direction, dsg, sim_bytes, breakdown, phase
            )
            return payload

        # True C-Engine execution with pooled, pre-mapped buffers.  The
        # path is zero-copy in both directions: senders produce into a
        # pool buffer, and the co-design posts receives into pool
        # buffers and decompresses straight into the user buffer
        # "without an additional copy" (paper §IV).
        assert self.pool is not None
        core = cengine_core_algo(dsg.algo)
        buf = yield from self.pool.acquire()
        try:
            try:
                payload = yield from engine_job_with_retry(
                    device, core, direction, sim_bytes,
                    self.config.retry, breakdown, phase, payload=payload,
                )
            except EngineFallback:
                metrics = get_metrics()
                if metrics.recording:
                    metrics.inc("faults.fallbacks")
                yield from self._soc_fallback_pipeline(
                    direction, dsg, sim_bytes, breakdown, phase
                )
                return payload
            if dsg.algo is Algo.ZLIB:
                check = soc.checksum_time(sim_bytes)
                yield from soc.run(check)
                breakdown.add(PHASE_HEADER, check)
        finally:
            self.pool.release(buf)
        return payload

    def _soc_fallback_pipeline(
        self,
        direction: Direction,
        dsg: CompressionDesign,
        sim_bytes: float,
        breakdown: TimeBreakdown,
        phase: str,
    ) -> Generator:
        """C-Engine design redirected to the SoC (Table III gap or a
        runtime escalation): the engine-shaped pipeline runs on cores —
        for zlib that is DEFLATE + separate checksum/header work,
        slightly slower than the integrated SoC zlib path."""
        soc = self.device.soc
        core = cengine_core_algo(dsg.algo)
        seconds = soc.codec_time(core, direction, sim_bytes)
        yield from soc.run(seconds)
        breakdown.add(phase, seconds)
        if dsg.algo is Algo.ZLIB:
            check = soc.checksum_time(sim_bytes)
            yield from soc.run(check)
            breakdown.add(PHASE_HEADER, check)

    def _sim_sz3(
        self,
        direction: Direction,
        dsg: CompressionDesign,
        resolved: ResolvedDesign,
        sim_bytes: float,
        sim_stage_bytes: float | None,
        breakdown: TimeBreakdown,
    ) -> Generator:
        """Charge hardware for an SZ3 op.

        ``sim_stage_bytes`` is the (scaled) entropy-payload size the
        lossless stage processes; None degrades to a size-proportional
        estimate.
        """
        device = self.device
        soc = device.soc
        cal = device.cal
        phase = PHASE_COMP if direction is Direction.COMPRESS else PHASE_DECOMP
        total = cal.soc_time(Algo.SZ3, direction, sim_bytes)

        if dsg.placement is Placement.SOC:
            # Native pipeline with the zstd-class backend, all on cores.
            yield from soc.run(total)
            breakdown.add(phase, total)
            return

        # Hybrid design: entropy pipeline on the SoC...
        entropy = (1.0 - cal.sz3_lossless_fraction) * total
        yield from soc.run(entropy)
        breakdown.add(phase, entropy)
        # ...lossless stage as DEFLATE, on the C-Engine when the device
        # supports that direction, else on SoC cores (the BF3 story).
        stage_bytes = (
            sim_stage_bytes if sim_stage_bytes is not None else sim_bytes / 3.0
        )
        engine = resolved.engine_for(direction)
        if engine == "cengine":
            assert self.pool is not None
            buf = yield from self.pool.acquire()
            try:
                yield from engine_job_with_retry(
                    device, Algo.DEFLATE, direction, stage_bytes,
                    self.config.retry, breakdown, "lossless_stage",
                )
            except EngineFallback:
                metrics = get_metrics()
                if metrics.recording:
                    metrics.inc("faults.fallbacks")
                seconds = stage_bytes / cal.sz3_backend_deflate_throughput
                yield from soc.run(seconds)
                breakdown.add("lossless_stage", seconds)
            finally:
                self.pool.release(buf)
        else:
            # BF3-style fallback: DEFLATE over the entropy-coded payload
            # on SoC cores (the paper's "redirect to the SoC DEFLATE
            # design", §V-C2).
            seconds = stage_bytes / cal.sz3_backend_deflate_throughput
            yield from soc.run(seconds)
            breakdown.add("lossless_stage", seconds)


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
