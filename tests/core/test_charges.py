"""The charge plan: one grid pins what is executed to what is summed.

``repro.plan.charges.op_plan`` is the only place an op's cost is
written down; PEDAL and the naive baseline execute it, ``CostModel``
sums it.  The grid below drives every (device, algo,
placement, direction, hoisted, size) through the real op and compares
the charged breakdown with the plan's sum; a second grid does the same
for one work-queue job (``job_plan``) against ``PipelineScheduler`` and
``PathSelector.job_costs``; a handful of anchors then pin both plans to
the calibration constants by hand.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.api import PedalConfig, PedalContext
from repro.core.baseline import NaiveCompressor
from repro.dpu.device import make_device
from repro.dpu.specs import Algo, Direction
from repro.faults import FaultPlan, injecting
from repro.plan.charges import (
    ENGINE,
    PHASE_DRAIN,
    PHASE_EXEC,
    PHASE_MAP,
    SETUP,
    SOC,
    job_plan,
    op_plan,
    plan_seconds,
    steal_stage,
)
from repro.plan.codecs import CodecConfig, real_compress, real_decompress
from repro.plan.designs import CompressionDesign, Placement
from repro.plan.header import HEADER_SIZE
from repro.sched import EngineJob, PipelineScheduler, SchedConfig
from repro.select import PATH_CENGINE, PATH_SOC, CostModel, PathSelector
from repro.sim import Environment
from tests.conftest import drive

C, D = Direction.COMPRESS, Direction.DECOMPRESS
TEXT = (b"the quick brown fox jumps over the lazy dog. " * 40)[:1536]
FIELD = np.sin(np.linspace(0.0, 9.0, 600)).astype(np.float32)
AUTO = "auto"

# 512 B / 64 KB / 5.1 MB straddle the DEFLATE crossovers; 10 MB is the
# Fig. 9 SZ3 size; 1234.5 is not a whole number of bytes, so the
# un-hoisted prefix's ``int(2 * sim_bytes)`` buffers differ from 2n.
SIZES = (512.0, 64e3, 5.1e6, 10e6, 1234.5)

GRID = [
    pytest.param(kind, algo, placement, direction, hoisted, n,
                 id=f"{kind}-{algo.value}-{getattr(placement, 'value', placement)}"
                    f"-{direction.value}-{'pedal' if hoisted else 'naive'}-{n:g}")
    for kind in ("bf2", "bf3")
    for algo in (Algo.DEFLATE, Algo.ZLIB, Algo.LZ4, Algo.AC, Algo.SZ3)
    for placement in (Placement.SOC, Placement.CENGINE, AUTO)
    for direction in (C, D)
    for hoisted in (True, False)
    for n in SIZES
    if hoisted or placement is not AUTO   # the naive flow has no selector
]


def _run_op(kind, algo, placement, direction, hoisted, n):
    """Drive one real op; returns (device, result, sim seconds elapsed,
    placement it ran under, measured SZ3 stage bytes scaled to ``n``)."""
    env = Environment()
    device = make_device(env, kind)
    data = FIELD if algo is Algo.SZ3 else TEXT
    if hoisted:
        runner = PedalContext(device)
        drive(env, runner.init())
        compress = lambda: runner.compress(data, algo, n, path=placement)  # noqa: E731
    else:
        runner = NaiveCompressor(device)
        compress = lambda: runner.compress(  # noqa: E731
            data, CompressionDesign(algo, placement), n)
    start = env.now
    result = drive(env, compress())
    ran_on = result.design.placement
    stage = real_compress(result.design, data, CodecConfig()).cengine_stage_bytes
    if direction is D:
        message = result.message
        stage = real_decompress(algo, message[HEADER_SIZE:])[1]
        start = env.now
        result = drive(env, runner.decompress(message, placement, n))
        ran_on = (Placement(result.resolved.design.placement)
                  if placement is AUTO else placement)
    if stage is not None:
        stage *= n / (data.nbytes if algo is Algo.SZ3 else len(data))
    return device, result, env.now - start, ran_on, stage


@pytest.mark.parametrize("kind,algo,placement,direction,hoisted,n", GRID)
def test_executed_equals_plan(kind, algo, placement, direction,
                                            hoisted, n):
    device, result, elapsed, ran_on, stage = _run_op(
        kind, algo, placement, direction, hoisted, n)
    plan = op_plan(device, algo, ran_on, direction, n, stage, hoisted)
    expected = plan_seconds(plan)
    # What the simulator charged, and how far its clock moved doing it.
    assert result.sim_seconds == pytest.approx(expected, rel=1e-12)
    assert elapsed == pytest.approx(expected, rel=1e-9)
    assert list(result.breakdown.as_dict()) == list(
        dict.fromkeys(stage[0] for stage in plan))
    # What the selector predicts for the same op.
    model = CostModel(device)
    assert model.path_seconds(
        algo, direction, n, ran_on.value, amortized=hoisted, stage_bytes=stage
    ) == expected
    unhinted = plan_seconds(op_plan(device, algo, ran_on, direction, n))
    assert model.path_seconds(algo, direction, n, ran_on.value) == unhinted


class TestPlanAgainstCalibration:
    """The plan's numbers, written out by hand from the calibration
    anchors (repro.dpu.calibration A2-A8)."""

    N = 5.1e6

    def test_bf2_cengine_deflate_is_overhead_plus_bytes_over_2908(self, bf2):
        (stage,) = op_plan(bf2, Algo.DEFLATE, Placement.CENGINE, C, self.N)
        assert stage[:2] == ("compression", ENGINE)
        assert stage[2] == 0.25e-3 + self.N / 2908e6
        assert stage[3] == (Algo.DEFLATE, C, self.N)
        (stage,) = op_plan(bf2, Algo.DEFLATE, Placement.CENGINE, D, self.N)
        assert stage[2] == 1.0e-3 + self.N / 3333e6

    def test_zlib_adds_the_checksum_on_an_soc_core(self, bf2):
        job, trailer = op_plan(bf2, Algo.ZLIB, Placement.CENGINE, C, self.N)
        (deflate,) = op_plan(bf2, Algo.DEFLATE, Placement.CENGINE, C, self.N)
        assert job == deflate[:4] + (job[4],)   # zlib rides the DEFLATE core
        assert trailer == ("header_trailer", SOC, self.N / 10e9, None, None)
        # ... and the integrated SoC zlib has no separate trailer.
        (native,) = op_plan(bf2, Algo.ZLIB, Placement.SOC, C, self.N)
        assert native == ("compression", SOC, self.N / 26.33e6, None, None)

    def test_engine_job_falls_back_to_the_rest_of_the_soc_op(self, bf2):
        for algo in (Algo.DEFLATE, Algo.ZLIB, Algo.LZ4, Algo.SZ3):
            for direction in (C, D):
                plan = op_plan(bf2, algo, Placement.CENGINE, direction, self.N)
                given_up = op_plan(bf2, algo, Placement.CENGINE, direction,
                                   self.N, engine_ok=False)
                jobs = [i for i, s in enumerate(plan) if s[1] is ENGINE]
                if not bf2.cengine.supports(
                        Algo.DEFLATE if algo is not Algo.LZ4 else algo,
                        direction):
                    assert not jobs and plan == given_up
                    continue
                (i,) = jobs
                assert plan[:i] + plan[i][4] == given_up
                assert all(s[1] is SOC for s in given_up)

    def test_bf3_cengine_sz3_compress_lands_on_the_soc_deflate_backend(self, bf3):
        n, stage = 10e6, 2.5e6
        entropy, backend = op_plan(
            bf3, Algo.SZ3, Placement.CENGINE, C, n, stage_bytes=stage)
        scale = bf3.spec.soc.perf_scale
        assert entropy == ("compression", SOC,
                           (1.0 - 0.10) * (n / (90e6 * scale)), None, None)
        assert backend == ("lossless_stage", SOC, stage / (50e6 * scale),
                           None, None)
        # BF-3 does decompress on the engine (Table II), BF-2 both ways.
        assert op_plan(bf3, Algo.SZ3, Placement.CENGINE, D, n)[1][1] is ENGINE
        # No measured stage: the n/3 estimate.
        assert op_plan(bf3, Algo.SZ3, Placement.CENGINE, C, n)[1][2] \
            == (n / 3.0) / (50e6 * scale)

    def test_unhoisted_is_the_same_plan_behind_a_setup_prefix(self, bf2, bf3):
        for device in (bf2, bf3):
            memory, cal = device.memory, device.cal
            for algo in (Algo.DEFLATE, Algo.ZLIB, Algo.LZ4, Algo.SZ3):
                for placement in Placement:
                    for direction in (C, D):
                        hoisted = op_plan(device, algo, placement, direction,
                                          self.N)
                        naive = op_plan(device, algo, placement, direction,
                                        self.N, hoisted=False)
                        prefix = naive[:len(naive) - len(hoisted)]
                        assert naive[len(prefix):] == hoisted
                        assert all(s[1] is SETUP for s in prefix)
                        nbytes = int(2 * self.N)
                        if any(s[1] is ENGINE for s in hoisted):
                            init, prep = prefix
                            assert init[:3] == ("doca_init", SETUP, 45e-3)
                            assert prep[2] == (
                                cal.buffer_fixed_time
                                + memory.alloc_time(nbytes)
                                + memory.dma_map_time(nbytes))
                            # Past the bring-up budget: the SoC-side op.
                            assert init[4] == op_plan(
                                device, algo, placement, direction, self.N,
                                hoisted=False, engine_ok=False)
                        else:
                            (prep,) = prefix
                            assert prep == (
                                "buffer_prep", SETUP,
                                memory.alloc_time(nbytes),
                                ("per_op_alloc", nbytes), None)

    def test_bf2_deflate_job_is_overhead_plus_bytes_over_2908(self, bf2, bf3):
        fill, job, drain = job_plan(bf2, Algo.DEFLATE, C, self.N, self.N)
        memory = bf2.memory
        assert fill[:3] == ("sched_map", SETUP, memory.alloc_time(self.N)
                            + memory.dma_map_time(self.N))
        assert job[:4] == ("sched_exec", ENGINE, 0.25e-3 + self.N / 2908e6,
                           (Algo.DEFLATE, C, self.N))
        # Past the retry budget the SoC steals it at the A1 25 MB/s.
        assert job[4] == (("sched_exec", SOC, self.N / 25e6, None, None),)
        assert drain == ("sched_drain", SOC, self.N / 10e9, None, None)
        # BF-3 has no compression engine: the plan is the steal alone.
        scale = bf3.spec.soc.perf_scale
        assert job_plan(bf3, Algo.DEFLATE, C, self.N, self.N) == (
            ("sched_exec", SOC, self.N / (25e6 * scale), None, None),)

    def test_fig7_setup_share_of_a_naive_engine_op_pair(self, bf2):
        pair = [op_plan(bf2, Algo.DEFLATE, Placement.CENGINE, d, self.N,
                        hoisted=False) for d in (C, D)]
        setup = sum(s[2] for plan in pair for s in plan if s[1] is SETUP)
        total = sum(plan_seconds(plan) for plan in pair)
        assert 0.90 <= setup / total <= 0.97   # paper: 90-94 %


class TestExecutor:
    def test_pool_miss_bills_its_map_time_to_buffer_prep(self, env, bf2):
        """More concurrent engine ops than pooled buffers: the op that
        misses maps a fresh buffer on the sim clock, and says so."""
        ctx = PedalContext(bf2, PedalConfig(pool_buffers=1))
        drive(env, ctx.init())
        ops = [env.process(ctx.compress(TEXT, "C-Engine_DEFLATE", 5.1e6))
               for _ in range(2)]
        env.run(until=ops[1])
        first, second = (op.value for op in ops)
        assert ctx.pool.stats.misses == 1
        nbytes = ctx.config.max_message_bytes
        assert first.breakdown.get("buffer_prep") == 0.0
        assert second.breakdown.get("buffer_prep") == (
            bf2.memory.alloc_time(nbytes) + bf2.memory.dma_map_time(nbytes))
        assert second.breakdown.get("buffer_prep") == ctx.pool.stats.grow_seconds
        assert ctx.pool.outstanding_buffers == 0


JOB_SIZES = ((64.0, 64.0), (5.1e6, 5.1e6), (1.2e6, 5.1e6))
JOB_MODES = ("cold_ring", "mempool", "retry_exhausted")

JOB_GRID = [
    pytest.param(kind, algo, direction, engine_bytes, soc_bytes, mode,
                 id=f"{kind}-{algo.value}-{direction.value}"
                    f"-{engine_bytes:g}-{soc_bytes:g}-{mode}")
    for kind in ("bf2", "bf3")
    for algo in (Algo.DEFLATE, Algo.LZ4, Algo.AC, Algo.ZLIB)
    for direction in (C, D)
    for engine_bytes, soc_bytes in JOB_SIZES
    for mode in JOB_MODES
]


def _run_job(kind, algo, direction, engine_bytes, soc_bytes, mode):
    """One job through a fresh scheduler; returns (device, outcome)."""
    env = Environment()
    device = make_device(env, kind)
    pool = None
    if mode == "mempool":
        ctx = PedalContext(device)
        drive(env, ctx.init())
        pool = ctx.pool
    scheduler = PipelineScheduler(device, SchedConfig(), pool=pool)
    job = EngineJob(algo, direction, engine_bytes, soc_sim_bytes=soc_bytes)
    # Failed attempts burn no engine time, so exec is the steal alone.
    faults = FaultPlan(seed=1, engine_fail=1.0 if mode == "retry_exhausted"
                       else 0.0, fail_latency_fraction=0.0)
    with injecting(faults):
        (outcome,) = drive(env, scheduler.submit_many([job]))
    return device, outcome


@pytest.mark.parametrize(
    "kind,algo,direction,engine_bytes,soc_bytes,mode", JOB_GRID)
def test_job_executed_equals_plan(kind, algo, direction, engine_bytes,
                                  soc_bytes, mode):
    device, outcome = _run_job(kind, algo, direction, engine_bytes,
                               soc_bytes, mode)
    plan = job_plan(device, algo, direction, engine_bytes, soc_bytes)
    steal = steal_stage(plan)
    costs = PathSelector(device).job_costs(
        algo, direction, engine_bytes, soc_bytes)
    # What the selector predicts: the exec stage and its fallback.
    if len(plan) == 1:
        assert costs == {PATH_SOC: steal[2]}
        ran = plan
    else:
        fill, job, drain = plan
        assert job[4] == (steal,)
        assert costs == {PATH_SOC: steal[2], PATH_CENGINE: job[2]}
        if mode == "retry_exhausted":
            ran = (fill, steal)
        else:
            ran = plan
    # What the scheduler charged: each stage it ran, once.  A pooled
    # buffer is already mapped, so only a cold ring slot pays the map.
    expected = dict.fromkeys((PHASE_MAP, PHASE_EXEC, PHASE_DRAIN), 0.0)
    for phase, resource, seconds, _, _ in ran:
        if resource is not SETUP or mode != "mempool":
            expected[phase] += seconds
    for phase, seconds in expected.items():
        assert outcome.breakdown.get(phase) == pytest.approx(seconds,
                                                             rel=1e-12)
    (last,) = [s for s in ran if s[0] == PHASE_EXEC]
    assert outcome.engine == {ENGINE: "cengine", SOC: "soc"}[last[1]]


def test_charge_functions_are_called_from_the_plan_only():
    """Source guard: op and job accounting have one spelling.  If one
    of the calibration charge functions reappears in a module that
    should only execute or sum a plan, a second copy has been started.
    Only the device models themselves (dpu/ and the DOCA buffer
    mapping) are allowed to name them."""
    src = Path(repro.__file__).parent
    banned = re.compile(
        r"soc_time|codec_time|cengine_time|checksum_time"
        r"|alloc_time|dma_map_time|soc_throughput"
        r"|sz3_lossless_fraction|doca_buffer_prep_time")
    allowed = ("plan/charges.py", "doca/buffers.py", "dpu/")
    checked = set()
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        if rel.startswith(allowed):
            continue
        checked.add(rel)
        hits = banned.findall(path.read_text())
        assert not hits, f"{rel} charges on its own: {sorted(set(hits))}"
    assert {"core/api.py", "core/baseline.py", "core/parallel.py",
            "select/model.py", "select/selector.py", "sched/pipeline.py",
            "sched/decoupled.py", "mpi/streaming.py",
            "faults/policy.py"} <= checked
    assert banned.search((src / "plan/charges.py").read_text())
    # The chunk splitter sums the job plan beside its one caller.
    assert not (src / "select/planning.py").exists()
