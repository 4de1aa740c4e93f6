"""Decoupled model/coder pipeline: byte identity + simulated overlap.

Two layers under test:

* the *real* dataflow — ``ac_compress_pipelined`` (bounded read-ahead
  between the model and coder stages) must emit byte-identical streams
  to the serial path at every queue depth;
* the *simulated* twin — :class:`repro.sched.DecoupledCodecPipeline`
  runs the stages as concurrent SoC processes; pipelining must never
  lose to serial and must approach the stage-bound speedup
  ``1 / max(f, 1-f)`` on many-chunk messages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.ac import ac_compress, ac_compress_pipelined, ac_decompress
from repro.core.charges import op_plan
from repro.core.designs import Placement
from repro.dpu.calibration import AC_MODEL_FRACTION
from repro.dpu.device import make_device
from repro.dpu.specs import Algo, Direction
from repro.sched import DecoupledCodecPipeline, DecoupledConfig
from repro.sim import Environment


def _drive(env, generator):
    proc = env.process(generator)
    return env.run(until=proc)


def _payload(size: int, seed: int = 99) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 64, size=size, dtype=np.uint8).tobytes()


# -- real dataflow -----------------------------------------------------------


@pytest.mark.parametrize("queue_depth", [1, 2, 3, 8])
def test_pipelined_bytes_identical_across_depths(queue_depth):
    data = _payload(30_000)
    assert ac_compress_pipelined(data, queue_depth=queue_depth) == \
        ac_compress(data)


def test_pipelined_rejects_bad_depth():
    with pytest.raises(ValueError):
        ac_compress_pipelined(b"x" * 100, queue_depth=0)


def test_pipelined_roundtrip():
    data = _payload(12_000, seed=5)
    assert ac_decompress(ac_compress_pipelined(data)) == data


@pytest.mark.parametrize("data", [b"", b"\x07"])
def test_pipelined_flush_after_degenerate_feed(data):
    """Regression: a zero-length (or single-byte) payload means the
    coder stage flushes with zero (or one) chunks queued; the emitted
    terminator must still match the serial path byte-for-byte and
    round-trip."""
    blob = ac_compress_pipelined(data)
    assert blob == ac_compress(data)
    assert ac_decompress(blob) == data


# -- simulated twin ----------------------------------------------------------


def _run(sim_bytes: float, pipelined: bool, data: "bytes | None" = None,
         config: "DecoupledConfig | None" = None):
    env = Environment()
    pipe = DecoupledCodecPipeline(make_device(env, "bf2"), config)
    return _drive(env, pipe.run(sim_bytes, data=data, pipelined=pipelined))


@pytest.mark.parametrize("sim_bytes", [1e3, 1e5, 1e6, 2e7])
def test_pipelined_never_loses_to_serial(sim_bytes):
    serial = _run(sim_bytes, pipelined=False)
    piped = _run(sim_bytes, pipelined=True)
    assert piped.sim_seconds <= serial.sim_seconds * (1 + 1e-12)
    assert piped.n_chunks == serial.n_chunks


def test_many_chunk_speedup_approaches_stage_bound():
    bound = 1.0 / max(AC_MODEL_FRACTION, 1.0 - AC_MODEL_FRACTION)
    serial = _run(2e7, pipelined=False)
    piped = _run(2e7, pipelined=True)
    speedup = serial.sim_seconds / piped.sim_seconds
    assert 0.9 * bound <= speedup <= bound + 1e-9


def test_single_chunk_degenerates_to_serial():
    serial = _run(100.0, pipelined=False)
    piped = _run(100.0, pipelined=True)
    assert piped.n_chunks == 1
    assert piped.sim_seconds == pytest.approx(serial.sim_seconds)


def test_queue_depth_one_serializes_the_stages():
    """depth 1 means the model cannot run ahead: makespan equals the
    serial sum (the bounded queue really is the throttle)."""
    config = DecoupledConfig(queue_depth=1)
    serial = _run(1e6, pipelined=False, config=config)
    piped = _run(1e6, pipelined=True, config=config)
    assert piped.sim_seconds == pytest.approx(serial.sim_seconds)


def test_stage_seconds_sum_to_calibrated_codec_time():
    env = Environment()
    device = make_device(env, "bf2")
    pipe = DecoupledCodecPipeline(device)
    model_s, coder_s, n_chunks = pipe.stage_seconds(1e6)
    ((_, _, total, _, _),) = op_plan(
        device, Algo.AC, Placement.SOC, Direction.COMPRESS, 1e6)
    assert total == pytest.approx(1e6 / 12e6)   # the 12 MB/s BF-2 anchor
    assert model_s + coder_s == pytest.approx(total)
    assert model_s == pytest.approx(total * AC_MODEL_FRACTION)
    assert n_chunks == int(np.ceil(1e6 / pipe.config.ac.chunk_bytes))


def test_sim_run_carries_real_bytes_identically():
    data = _payload(10_000, seed=7)
    serial = _run(1e6, pipelined=False, data=data)
    piped = _run(1e6, pipelined=True, data=data)
    assert serial.payload == piped.payload == ac_compress(data)
    assert ac_decompress(piped.payload) == data


def test_decoupled_config_validation():
    with pytest.raises(ValueError):
        DecoupledConfig(queue_depth=0)
    with pytest.raises(ValueError):
        DecoupledConfig(model_fraction=0.0)
    with pytest.raises(ValueError):
        DecoupledConfig(model_fraction=1.0)


def test_result_reports_stage_totals():
    res = _run(1e6, pipelined=True)
    assert res.pipelined
    assert res.queue_depth == 2
    assert res.model_seconds > 0 and res.coder_seconds > 0
    # Makespan is bounded below by the bottleneck stage.
    assert res.sim_seconds >= max(res.model_seconds, res.coder_seconds) - 1e-12
