"""The charge plan: what one PEDAL op costs, written down once.

The paper's accounting has two parts.  Every path's cost is linear in
the bytes it moves (§V), and DOCA initialisation plus buffer
preparation — 90–94 % of an op done the naive way — is paid once in
``PEDAL_Init`` instead of inside every op (§III-C, Fig. 7).
:func:`op_plan` is that rule as data: for one (algorithm, placement,
direction, bytes) op on one device it returns the ordered *stages* the
op charges, and ``hoisted=False`` prepends the per-op set-up that the
naive flow pays.  That prefix is the **only** difference between PEDAL
and the naive baseline.

Everything that needs the rule reads this module: the simulator
*executes* a plan (:func:`execute`, under
:class:`~repro.core.api.PedalContext` and
:class:`~repro.core.baseline.NaiveCompressor` alike), while the path
selector (:class:`~repro.select.CostModel`) and
:mod:`~repro.core.autodesign` *sum* it (:func:`plan_seconds`) — so a
prediction cannot drift from what the simulator charges.
:func:`job_plan` is the same rule for one job of the pipelined work
queue (map → exec → drain): :class:`~repro.sched.PipelineScheduler`
runs it, the parallel compressor's chunk split and
:meth:`~repro.select.PathSelector.job_costs` sum it.

What a plan decides from its key alone is decided once per device:
:func:`plan_entry` keeps one :class:`PlanEntry` per (algorithm, placement,
direction, hoisted, engine_ok) in the device's table, and :func:`op_plan`
(:func:`job_plan`, per algorithm and direction) prices it at a size.

A stage is a plain tuple ``(phase, resource, seconds, detail,
fallback)``:

* ``phase`` — the :class:`~repro.sim.TimeBreakdown` phase it is billed
  to (the Fig. 7 / Fig. 9 legends);
* ``resource`` — :data:`SOC` (one core busy for ``seconds``),
  :data:`ENGINE` (one C-Engine job, retried under the
  :class:`~repro.faults.RetryPolicy`) or :data:`SETUP` (un-hoisted
  per-op set-up, a plain wait);
* ``seconds`` — the calibrated cost (:mod:`repro.dpu.calibration`);
* ``detail`` — the engine job ``(core algo, direction, bytes)``, or the
  per-op buffers ``(span label, bytes)``;
* ``fallback`` — the plan that replaces *the rest of the op* once the
  stage is given up on: the SoC pipeline for an engine job past its
  retry budget, the whole SoC-side op for a DOCA bring-up past its, the
  SoC work-steal for a scheduler job.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, NamedTuple

from repro.dpu.specs import Algo, Direction
from repro.errors import DocaInitError
from repro.faults.plan import get_fault_plan
from repro.faults.policy import (
    EngineFallback,
    RetryPolicy,
    engine_job_with_retry,
    init_with_retry,
)
from repro.obs import device_span, get_metrics
from repro.plan.designs import CompressionDesign, Placement
from repro.plan.header import PedalHeader
from repro.plan.registry import ResolvedDesign, cengine_core_algo

if TYPE_CHECKING:
    from repro.core.mempool import MemoryPool
    from repro.dpu.device import BlueFieldDPU
    from repro.sim import TimeBreakdown

__all__ = [
    "SOC", "ENGINE", "SETUP", "PlanEntry", "plan_entry", "build_entry",
    "op_plan", "job_plan", "build_job_plan", "steal_stage",
    "plan_seconds", "execute", "PHASE_INIT", "PHASE_PREP", "PHASE_COMP",
    "PHASE_DECOMP", "PHASE_HEADER", "PHASE_STAGE", "PHASE_MAP", "PHASE_EXEC",
    "PHASE_DRAIN",
]

# Phase names used in breakdowns (Fig. 7 / Fig. 9 legends).
PHASE_INIT = "doca_init"
PHASE_PREP = "buffer_prep"
PHASE_COMP = "compression"
PHASE_DECOMP = "decompression"
PHASE_HEADER = "header_trailer"
PHASE_STAGE = "lossless_stage"
# ... and the work queue's per-stage phases (repro.sched).
PHASE_MAP = "sched_map"
PHASE_EXEC = "sched_exec"
PHASE_DRAIN = "sched_drain"

SOC = "soc"
ENGINE = "cengine"
SETUP = "setup"


class PlanEntry(NamedTuple):
    """What one op key decides on a device (see :func:`plan_entry`)."""

    design: CompressionDesign   # interned
    resolved: ResolvedDesign    # Table III, or SoC-only without the engine
    fallback: bool              # resolved.any_fallback
    on_engine: bool             # this direction runs on the C-Engine
    header: bytes               # the PEDAL header
    plan: Callable              # (sim_bytes, stage_bytes) -> stage tuple

    def resolve(self) -> ResolvedDesign:
        """``resolved``; a fallback counts one ``pedal.fallback_soc``."""
        if self.fallback and get_metrics().recording:
            get_metrics().inc("pedal.fallback_soc")
        return self.resolved


def _lookup(device: "BlueFieldDPU", key: tuple, build: Callable) -> Any:
    """``device.plans[key]``, built on first use and never invalidated:
    a device's calibration and capability matrix are fixed."""
    table = device.plans
    return table.get(key) or table.setdefault(key, build(device, *key))


def plan_entry(device: "BlueFieldDPU", algo: Algo, placement: Placement,
               direction: Direction, hoisted: bool = True,
               engine_ok: bool = True) -> PlanEntry:
    """The device's table entry for one op key, built on first use."""
    return _lookup(device, (algo, placement, direction, hoisted, engine_ok),
                   build_entry)


def op_plan(device: "BlueFieldDPU", algo: Algo, placement: Placement,
            direction: Direction, sim_bytes: float,
            stage_bytes: float | None = None, hoisted: bool = True,
            engine_ok: bool = True) -> tuple:
    """The stages one op charges on ``device``.

    ``stage_bytes`` is the (scaled) entropy-payload size SZ3's lossless
    stage processes; None degrades to the ``sim_bytes / 3`` estimate.
    ``hoisted=False`` prepends the naive per-op set-up.  ``engine_ok``
    is False for an op whose DOCA bring-up was given up on: every
    C-Engine design then takes its Table III SoC fallback.
    """
    return plan_entry(device, algo, placement, direction, hoisted,
                      engine_ok).plan(sim_bytes, stage_bytes)


def build_entry(device: "BlueFieldDPU", algo: Algo, placement: Placement,
                direction: Direction, hoisted: bool,
                engine_ok: bool) -> PlanEntry:
    """The uncached entry: every branch taken, every constant looked up,
    once; its ``plan`` only evaluates the calibration's expressions."""
    cal, memory = device.cal, device.memory
    phase = PHASE_COMP if direction is Direction.COMPRESS else PHASE_DECOMP
    # Table III: a C-Engine design runs on the engine only where the
    # device natively supports its core algorithm in this direction.
    core = cengine_core_algo(algo)
    design = CompressionDesign(algo, placement)
    resolved = ResolvedDesign(design, device.name, *(
        "cengine" if placement is not Placement.SOC and engine_ok
        and device.cengine.supports(core, d) else "soc" for d in Direction))
    on_engine = resolved.engine_for(direction) == "cengine"
    overhead = cal.cengine_overhead[direction]
    job_rate = cal.cengine_throughput.get((core, direction))  # None: no engine
    # A native SoC design's calibrated throughput covers the whole
    # algorithm (zlib's includes its checksum work, SZ3's the full
    # pipeline with the zstd-class backend); the engine-shaped pipeline
    # runs the core codec, then for zlib the adler32/header work, which
    # stays on an SoC core either way — so on cores it is slightly slower
    # than the integrated SoC zlib.  On the engine the job takes the
    # codec's place, falling back to the SoC pipeline; the trailer stays.
    hybrid = placement is Placement.CENGINE and algo is Algo.SZ3
    rate = cal.soc_throughput[algo if hybrid or placement is Placement.SOC
                              else core, direction]

    def soc(n, s):
        return ((phase, SOC, n / rate, None, None),)
    if placement is Placement.CENGINE and algo is Algo.ZLIB:
        def soc(n, s):
            return ((phase, SOC, n / rate, None, None),
                    (PHASE_HEADER, SOC, cal.checksum_time(n), None, None))

    def engine(n, s):
        stages = soc(n, s)
        return ((phase, ENGINE, overhead + n / job_rate, (core, direction, n),
                 stages),) + stages[1:]
    if hybrid:
        # Entropy pipeline on the SoC, then the lossless stage as DEFLATE
        # over the entropy-coded payload (measured, else n / 3) — on SoC
        # cores at the backend rate (the BF3 story, paper §V-C2), or as a
        # C-Engine job where the device supports the direction.
        keep = 1.0 - cal.sz3_lossless_fraction
        backend = cal.sz3_backend_deflate_throughput

        def soc(n, s):
            return ((phase, SOC, keep * (n / rate), None, None),
                    (PHASE_STAGE, SOC, (s if s is not None else n / 3.0)
                     / backend, None, None))

        def engine(n, s):
            entropy, fallback = soc(n, s)
            stage = s if s is not None else n / 3.0
            return (entropy, (PHASE_STAGE, ENGINE, overhead + stage / job_rate,
                              (core, direction, stage), (fallback,)))
    plan = engine if on_engine else soc
    if not hoisted:
        # The naive flow allocates source + destination buffers for this
        # one op (``int(2 * n)`` bytes), and on the engine path first
        # brings DOCA up and DMA-maps them; past the bring-up budget the
        # op continues as its SoC-side self.
        def soc_side(n, s):
            nbytes = int(2 * n)
            return ((PHASE_PREP, SETUP, memory.alloc_time(nbytes),
                     ("per_op_alloc", nbytes), None),) + soc(n, s)

        def prefixed(n, s):
            nbytes = int(2 * n)
            return ((PHASE_INIT, SETUP, cal.doca_init_time, None,
                     soc_side(n, s)),
                    (PHASE_PREP, SETUP, memory.doca_buffer_prep_time(nbytes),
                     ("per_op_dma_map", nbytes), None)) + engine(n, s)
        plan = prefixed if on_engine else soc_side
    return PlanEntry(design, resolved, resolved.any_fallback, on_engine,
                     PedalHeader.for_algo(algo).encode(), plan)


def job_plan(device: "BlueFieldDPU", algo: Algo, direction: Direction,
             engine_bytes: float, soc_bytes: float) -> tuple:
    """The stages one pipelined work-queue job charges on ``device``.

    ``engine_bytes`` is what the C-Engine ingests (compressed bytes on
    decompress), ``soc_bytes`` the uncompressed size an SoC core bills.
    The job maps its buffer, runs on the engine — falling back to the
    SoC work-steal — and CRC-verifies its output on an SoC core.  Where
    the engine lacks (``algo``, ``direction``) the plan is the steal
    alone.
    """
    return _lookup(device, (algo, direction), build_job_plan)(
        engine_bytes, soc_bytes)


def build_job_plan(device: "BlueFieldDPU", algo: Algo,
                   direction: Direction) -> Callable:
    """The uncached ``(engine_bytes, soc_bytes) -> stages`` builder."""
    cal, memory = device.cal, device.memory
    rate = cal.soc_throughput[algo, direction]

    def steal(e, s):
        return ((PHASE_EXEC, SOC, s / rate, None, None),)
    if not device.cengine.supports(algo, direction):
        return steal
    overhead = cal.cengine_overhead[direction]
    job_rate = cal.cengine_throughput[algo, direction]

    def plan(e, s):
        return ((PHASE_MAP, SETUP, memory.alloc_time(e)
                 + memory.dma_map_time(e), None, None),
                (PHASE_EXEC, ENGINE, overhead + e / job_rate,
                 (algo, direction, e), steal(e, s)),
                (PHASE_DRAIN, SOC, cal.checksum_time(s), None, None))
    return plan


def steal_stage(plan: tuple) -> tuple:
    """The SoC work-steal stage of a :func:`job_plan`."""
    return plan[0] if len(plan) == 1 else plan[1][4][0]


def plan_seconds(plan: tuple) -> float:
    """Fault-free, uncontended sim-clock latency of ``plan``."""
    total = 0.0
    for stage in plan:
        total += stage[2]
    return total


def execute(
    device: "BlueFieldDPU",
    plan: tuple,
    retry: RetryPolicy,
    breakdown: "TimeBreakdown",
    payload: "bytes | None" = None,
    pool: "MemoryPool | None" = None,
) -> Generator:
    """Charge ``plan`` to the simulated hardware, stage by stage.

    Returns ``(payload, engine_up)``: engine jobs verify ``payload``
    against injected corruption (see :mod:`repro.faults`), and
    ``engine_up`` is False when a per-op DOCA bring-up was given up on.
    With a ``pool``, engine jobs run on a pooled, pre-mapped buffer held
    from the first job to the end of the op — the path is zero-copy in
    both directions (paper §IV) — and a pool miss bills its fresh
    mapping to ``buffer_prep``.
    """
    buf = None
    try:
        for phase, resource, seconds, detail, fallback in plan:
            try:
                if resource is SOC:
                    yield from device.soc.run(seconds)
                    breakdown.add(phase, seconds)
                elif resource is ENGINE:
                    if pool is not None and buf is None:
                        misses = pool.stats.misses
                        buf = yield from pool.acquire()
                        if pool.stats.misses != misses:
                            breakdown.add(PHASE_PREP, buf.map_seconds)
                    # A corrupted output is re-verified at the job
                    # plan's drain rate (a CRC over the job's bytes).
                    payload = yield from engine_job_with_retry(
                        device, *detail, retry, breakdown, phase,
                        device.cal.checksum_time(detail[2]), payload=payload,
                    )
                elif fallback is None:
                    what, nbytes = detail
                    with device_span("buffer.prep", device, what=what,
                                     bytes=nbytes):
                        breakdown.add(phase, seconds)
                        yield device.env.timeout(seconds)
                else:
                    yield from init_with_retry(
                        device, retry, breakdown, phase,
                        lambda: _per_op_doca_init(device, seconds),
                    )
            except EngineFallback:
                metrics = get_metrics()
                if metrics.recording:
                    metrics.inc("faults.fallbacks")
                payload, _ = yield from execute(
                    device, fallback, retry, breakdown, payload)
                # Only a failed bring-up takes the engine down for the op.
                return payload, resource is not SETUP
        return payload, True
    finally:
        if buf is not None:
            pool.release(buf)


def _per_op_doca_init(device: "BlueFieldDPU", seconds: float) -> Generator:
    """One un-hoisted DOCA bring-up: the naive flow opens a session for
    every op (and, true to it, remembers nothing about the last one)."""
    plan = get_fault_plan()
    fail = plan.active and plan.session_init(device.name, device.env.now)
    with device_span("doca.init", device, device=device.name,
                     per_op=True) as span:
        if fail:
            span.set_attr("fault", "init_fail")
        yield device.env.timeout(seconds)
    if fail:
        raise DocaInitError(
            f"DOCA bring-up failed on {device.name}", sim_seconds=seconds)
    return seconds
