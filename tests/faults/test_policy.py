"""Retry/fallback policy through the PEDAL and naive pipelines.

The acceptance behaviours of the fault layer:

* probability 0.0 is a provable no-op (identical sim-time and bytes);
* engine failure probability 1.0 still completes, byte-identical, via
  SoC fallback with a nonzero ``faults.fallbacks`` counter;
* same seed + plan => identical sim trace, metrics, and outputs.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.api import PedalContext
from repro.core.baseline import NaiveCompressor
from repro.dpu.device import make_device
from repro.dpu.specs import Algo, Direction
from repro.errors import DocaInitError, DocaJobError, DocaTimeoutError
from repro.faults import EngineFallback, FaultPlan, injecting, policy
from repro.faults.policy import PHASE_RETRY, backoff_wait, engine_job_with_retry
from repro.sim import Environment, TimeBreakdown
from tests.conftest import drive

from .conftest import counters

PAYLOAD = (b"the quick brown fox jumps over the lazy dog. " * 300)[:12288]


def pedal_roundtrip(plan=None, design="C-Engine_DEFLATE", device="bf2"):
    """One init+compress+decompress; returns (env.now, message, data)."""
    env = Environment()
    dev = make_device(env, device)
    ctx = PedalContext(dev)

    def run():
        drive(env, ctx.init())
        comp = drive(env, ctx.compress(PAYLOAD, design))
        dec = drive(env, ctx.decompress(comp.message))
        return env.now, comp.message, dec.data, ctx

    if plan is None:
        return run()
    with injecting(plan):
        return run()


def naive_roundtrip(plan=None, design="C-Engine_DEFLATE"):
    env = Environment()
    dev = make_device(env, "bf2")
    naive = NaiveCompressor(dev)

    def run():
        comp = drive(env, naive.compress(PAYLOAD, design))
        dec = drive(env, naive.decompress(comp.message))
        return env.now, comp.message, dec.data

    if plan is None:
        return run()
    with injecting(plan):
        return run()


class TestRetryPolicy:
    def test_defaults_valid(self):
        assert policy.MAX_ATTEMPTS >= 1
        assert policy.BACKOFF_BASE_S >= 0
        assert policy.BACKOFF_MULTIPLIER >= 1.0

    def test_backoff_is_exponential(self, monkeypatch):
        monkeypatch.setattr(policy, "BACKOFF_BASE_S", 1.0)
        monkeypatch.setattr(policy, "BACKOFF_MULTIPLIER", 2.0)
        env = Environment()
        dev = make_device(env, "bf2")
        waits = []
        for failed in (1, 2, 3):
            breakdown = TimeBreakdown()
            drive(env, backoff_wait(dev, failed, breakdown))
            waits.append(breakdown.get(PHASE_RETRY))
        assert waits == [1.0, 2.0, 4.0]
        assert env.now == 7.0


class TestZeroProbabilityNoOp:
    def test_pedal_identical_time_and_bytes(self):
        t0, m0, d0, _ = pedal_roundtrip()
        t1, m1, d1, _ = pedal_roundtrip(FaultPlan(seed=123))
        assert t1 == t0
        assert m1 == m0
        assert d1 == d0 == PAYLOAD

    def test_naive_identical_time_and_bytes(self):
        t0, m0, _ = naive_roundtrip()
        t1, m1, _ = naive_roundtrip(FaultPlan(seed=123))
        assert (t1, m1) == (t0, m0)

    def test_no_fault_metrics_emitted(self, metrics):
        pedal_roundtrip(FaultPlan(seed=1))
        assert counters(metrics) == {}


class TestEngineFailureFallback:
    def test_certain_failure_completes_via_soc(self, metrics):
        t0, m0, _, _ = pedal_roundtrip()
        t1, m1, d1, _ = pedal_roundtrip(FaultPlan(seed=2, engine_fail=1.0))
        assert d1 == PAYLOAD
        assert m1 == m0            # artifacts never depend on the engine
        assert t1 > t0             # but the failed attempts cost sim time
        got = counters(metrics)
        assert got["faults.fallbacks"] > 0
        assert got["faults.retries"] >= got["faults.fallbacks"]
        assert got["faults.injected.engine_fail"] > 0

    def test_timeout_failure_also_falls_back(self, metrics):
        _, m1, d1, _ = pedal_roundtrip(FaultPlan(seed=2, engine_stall=1.0))
        assert d1 == PAYLOAD
        assert counters(metrics)["faults.fallbacks"] > 0

    def test_degrade_slows_without_fallback(self, metrics):
        t0, m0, _, _ = pedal_roundtrip()
        t1, m1, _, _ = pedal_roundtrip(FaultPlan(seed=2, engine_degrade=1.0))
        assert m1 == m0
        assert t1 > t0
        got = counters(metrics)
        assert got["faults.injected.engine_degrade"] > 0
        assert "faults.fallbacks" not in got
        assert "faults.retries" not in got

    def test_retry_then_success_below_budget(self, metrics):
        # ~50% failure with 3 attempts: some retries, artifacts intact.
        _, m1, d1, _ = pedal_roundtrip(FaultPlan(seed=6, engine_fail=0.5))
        t0, m0, _, _ = pedal_roundtrip()
        assert m1 == m0 and d1 == PAYLOAD
        assert counters(metrics).get("faults.retries", 0) > 0

    def test_naive_certain_failure(self, metrics):
        t0, m0, _ = naive_roundtrip()
        t1, m1, d1 = naive_roundtrip(FaultPlan(seed=2, engine_fail=1.0))
        assert m1 == m0 and d1 == PAYLOAD
        assert t1 > t0
        assert counters(metrics)["faults.fallbacks"] > 0

    def test_sz3_lossless_stage_falls_back(self, metrics, smooth_field):
        env = Environment()
        dev = make_device(env, "bf2")
        ctx = PedalContext(dev)
        with injecting(seed=3, engine_fail=1.0):
            drive(env, ctx.init())
            comp = drive(env, ctx.compress(smooth_field, "C-Engine_SZ3"))
            dec = drive(env, ctx.decompress(comp.message))
        assert counters(metrics)["faults.fallbacks"] > 0
        assert abs(dec.data.astype("f8") - smooth_field.astype("f8")).max() <= 1e-3


class TestCorruptionDetection:
    def test_corruption_detected_and_output_clean(self, metrics):
        _, m0, _, _ = pedal_roundtrip()
        _, m1, d1, _ = pedal_roundtrip(FaultPlan(seed=3, corrupt_output=1.0))
        assert m1 == m0            # damage never reaches the wire
        assert d1 == PAYLOAD
        got = counters(metrics)
        assert got["faults.corruptions_detected"] > 0
        assert got["faults.corruptions_detected"] == \
            got["faults.injected.corrupt_output"]
        assert got["faults.fallbacks"] > 0  # persists past the budget

    def test_occasional_corruption_retries_clean(self, metrics):
        _, m0, _, _ = pedal_roundtrip()
        _, m1, d1, _ = pedal_roundtrip(FaultPlan(seed=8, corrupt_output=0.4))
        assert m1 == m0 and d1 == PAYLOAD


class TestInitFailure:
    def test_pedal_init_gives_up_to_soc_only_context(self, metrics):
        t, m, d, ctx = pedal_roundtrip(FaultPlan(seed=4, init_fail=1.0))
        assert d == PAYLOAD
        assert not ctx.engine_available
        got = counters(metrics)
        assert got["faults.init_giveups"] == 1
        assert got["faults.fallbacks"] >= 1
        assert got["faults.injected.init_fail"] == policy.MAX_ATTEMPTS

    def test_pedal_transient_init_recovers(self, metrics):
        # ~50%: bring-up may need retries but usually lands engine-side.
        _, m0, _, _ = pedal_roundtrip()
        _, m1, d1, ctx = pedal_roundtrip(FaultPlan(seed=40, init_fail=0.5))
        assert m1 == m0 and d1 == PAYLOAD

    def test_doca_session_raises_and_stays_closed(self):
        from repro.doca.sdk import DocaSession

        env = Environment()
        dev = make_device(env, "bf2")
        session = DocaSession(dev)
        with injecting(seed=4, init_fail=1.0):
            with pytest.raises(DocaInitError) as excinfo:
                drive(env, session.open())
        assert not session.is_open
        assert excinfo.value.sim_seconds == dev.cal.doca_init_time
        # Charged despite failing: the bring-up walked before erroring.
        assert env.now == pytest.approx(dev.cal.doca_init_time)

    def test_naive_init_giveup_is_per_operation(self, metrics):
        t0, m0, _ = naive_roundtrip()
        _, m1, d1 = naive_roundtrip(FaultPlan(seed=4, init_fail=1.0))
        assert m1 == m0 and d1 == PAYLOAD
        # Both compress and decompress gave up independently.
        assert counters(metrics)["faults.init_giveups"] == 2


class TestPedalNaiveParity:
    """PEDAL and the naive baseline run one plan executor, so the same
    injected failure must leave both on the same SoC stages with the
    same fault accounting — the naive op only adds its set-up prefix."""

    SETUP_PHASES = ("doca_init", "buffer_prep")

    @pytest.mark.parametrize("design", [
        "C-Engine_DEFLATE", "C-Engine_zlib", "C-Engine_SZ3",
    ])
    @pytest.mark.parametrize("fault", [
        {"engine_fail": 1.0},   # every engine job fails past the budget
        {"init_fail": 1.0},     # DOCA bring-up fails past the budget
    ], ids=["engine_job", "doca_init"])
    def test_same_soc_stages_and_fault_counts(self, fault, design,
                                              smooth_field):
        data = smooth_field if design.endswith("SZ3") else PAYLOAD

        def one_compress(make):
            registry = obs.MetricsRegistry()
            previous = obs.set_metrics(registry)
            try:
                with injecting(seed=11, **fault):
                    env = Environment()
                    comp = drive(env, make(make_device(env, "bf2")))
            finally:
                obs.set_metrics(previous)
            return comp, counters(registry)

        def pedal(dev):
            ctx = PedalContext(dev)
            init = yield from ctx.init()
            comp = yield from ctx.compress(data, design, 5.1e6)
            # The naive op brings DOCA up itself; PEDAL did it in init.
            comp.breakdown.merge(init)
            return comp

        def naive(dev):
            return NaiveCompressor(dev).compress(data, design, 5.1e6)

        (p, p_counts), (n, n_counts) = one_compress(pedal), one_compress(naive)
        assert n.message == p.message
        assert n.resolved.compress_engine == p.resolved.compress_engine
        for key in ("faults.fallbacks", "faults.retries"):
            assert n_counts[key] == p_counts[key] > 0

        def stages(comp):
            return {k: v for k, v in comp.breakdown.as_dict().items()
                    if k not in self.SETUP_PHASES}

        assert stages(n) == stages(p)
        assert "compression" in stages(p) and PHASE_RETRY in stages(p)


class TestDeterminism:
    def test_identical_runs_identical_everything(self):
        plan_kwargs = dict(seed=99, engine_fail=0.3, engine_stall=0.2,
                           corrupt_output=0.3, init_fail=0.3)
        reg_a = obs.MetricsRegistry()
        prev = obs.set_metrics(reg_a)
        try:
            a = pedal_roundtrip(FaultPlan(**plan_kwargs))
        finally:
            obs.set_metrics(prev)
        reg_b = obs.MetricsRegistry()
        prev = obs.set_metrics(reg_b)
        try:
            b = pedal_roundtrip(FaultPlan(**plan_kwargs))
        finally:
            obs.set_metrics(prev)
        assert a[0] == b[0]                       # sim clock
        assert a[1] == b[1] and a[2] == b[2]      # bytes
        assert reg_a.as_dict() == reg_b.as_dict() # every counter/histogram

    def test_identical_traces(self):
        def traced():
            tracer = obs.Tracer()
            prev = obs.set_tracer(tracer)
            try:
                pedal_roundtrip(FaultPlan(seed=7, engine_fail=0.5))
            finally:
                obs.set_tracer(prev)
            return [
                (s.name, s.sim_start, s.sim_end, dict(s.attrs))
                for s in tracer.spans
            ]

        assert traced() == traced()


class TestPolicyDriver:
    """engine_job_with_retry in isolation."""

    def test_raw_engine_errors_surface_without_policy(self):
        env = Environment()
        dev = make_device(env, "bf2")
        with injecting(seed=1, engine_fail=1.0):
            with pytest.raises(DocaJobError) as excinfo:
                drive(env, dev.cengine.submit(Algo.DEFLATE,
                                              Direction.COMPRESS, 4096))
        assert excinfo.value.sim_seconds > 0
        with injecting(seed=1, engine_stall=1.0):
            with pytest.raises(DocaTimeoutError):
                drive(env, dev.cengine.submit(Algo.DEFLATE,
                                              Direction.COMPRESS, 4096))

    def test_fallback_after_exact_budget(self, metrics, monkeypatch):
        monkeypatch.setattr(policy, "MAX_ATTEMPTS", 4)
        env = Environment()
        dev = make_device(env, "bf2")
        breakdown = TimeBreakdown()
        with injecting(seed=1, engine_fail=1.0):
            with pytest.raises(EngineFallback) as excinfo:
                drive(env, engine_job_with_retry(
                    dev, Algo.DEFLATE, Direction.COMPRESS, 4096,
                    breakdown, "phase", 4096 / 10e9))
        assert excinfo.value.attempts == 4
        assert counters(metrics)["faults.retries"] == 4
        assert breakdown.get("phase") > 0          # burned engine time
        assert breakdown.get(PHASE_RETRY) > 0      # backoff waits

    def test_failed_attempt_time_charged_to_phase(self, monkeypatch):
        monkeypatch.setattr(policy, "MAX_ATTEMPTS", 2)
        env = Environment()
        dev = make_device(env, "bf2")
        breakdown = TimeBreakdown()
        nominal = drive(env, dev.cengine.submit(Algo.DEFLATE,
                                                Direction.COMPRESS, 4096))
        with injecting(seed=1, engine_fail=1.0, fail_latency_fraction=0.5):
            with pytest.raises(EngineFallback):
                drive(env, engine_job_with_retry(
                    dev, Algo.DEFLATE, Direction.COMPRESS, 4096,
                    breakdown, "phase", 4096 / 10e9))
        assert breakdown.get("phase") == pytest.approx(2 * 0.5 * nominal)

    def test_engine_fallback_never_escapes_pipelines(self):
        # Even at 100% failure the public APIs raise nothing.
        _, _, d, _ = pedal_roundtrip(FaultPlan(
            seed=5, engine_fail=0.8, engine_stall=0.2, corrupt_output=1.0,
            init_fail=0.5))
        assert d == PAYLOAD

    def test_doca_job_errors_counter(self, metrics):
        from repro.doca.jobs import submit_job
        from repro.doca.sdk import DocaSession

        env = Environment()
        dev = make_device(env, "bf2")
        session = DocaSession(dev)
        drive(env, session.open())
        inventory, _ = drive(env, session.create_inventory())
        buf = drive(env, inventory.map_buffer(4096))
        with injecting(seed=1, engine_fail=1.0):
            with pytest.raises(DocaJobError):
                drive(env, submit_job(session, Algo.DEFLATE,
                                      Direction.COMPRESS, buf))
        assert metrics.as_dict()["counters"]["doca.job_errors"] == 1
