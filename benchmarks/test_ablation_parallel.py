"""Ablation: chunk-parallel compression across SoC cores + C-Engine.

The paper's §IV/§V-C2 future-work direction ("parallel compression and
decompression" / "hybrid design avenue for exploiting both SoC and
C-Engine in parallel"), quantified: simulated makespan vs chunk count,
SoC-only vs engine-assisted, plus the real ratio cost of chunk
independence.
"""

import pytest

from repro.core.parallel import ParallelCompressor, ParallelConfig
from repro.datasets import get_dataset
from repro.dpu import make_device
from repro.sim import Environment

NOMINAL = 48.85e6
ACTUAL = 64 * 1024


def _run(n_chunks: int, use_cengine: bool):
    env = Environment()
    device = make_device(env, "bf2")
    payload = get_dataset("silesia/mozilla").generate(ACTUAL)
    pc = ParallelCompressor(
        device, ParallelConfig(n_chunks=n_chunks, use_cengine=use_cengine)
    )
    proc = env.process(pc.compress(payload, NOMINAL))
    result = env.run(until=proc)
    return result


@pytest.mark.parametrize("n_chunks", [1, 4, 8, 16])
def test_soc_scaling(benchmark, n_chunks):
    result = benchmark.pedantic(
        _run, args=(n_chunks, False), rounds=1, iterations=1
    )
    # Perfect scaling up to the 8-core pool, then saturation.
    serial = 48.85e6 / 25e6
    expected = serial / min(n_chunks, 8)
    assert result.sim_seconds == pytest.approx(expected, rel=0.05)


def test_engine_assist_dominates(benchmark):
    hybrid = benchmark.pedantic(_run, args=(8, True), rounds=1, iterations=1)
    soc_only = _run(8, False)
    # The engine is so much faster it absorbs the whole chunk stream...
    assert hybrid.chunks_on_engine == 8
    # ...and beats the 8-core SoC fan-out by a wide margin.
    assert hybrid.sim_seconds * 5 < soc_only.sim_seconds


def test_parallel_vs_single_engine_job(benchmark):
    """Chunking the engine's work adds per-job overhead: 8 jobs cost
    ~7 extra overheads over one big job — the trade the future-work
    hybrid design must balance.  Under the pipelined work queue
    (``repro.sched``) the fill/drain edges of the pipeline add one
    buffer-map lead-in and one CRC-drain tail; every interior map and
    drain overlaps engine execution."""
    device = make_device(Environment(), "bf2")
    from repro.core.charges import job_plan
    from repro.dpu.specs import Algo, Direction

    one_job = device.cal.cengine_time(Algo.DEFLATE, Direction.COMPRESS, NOMINAL)
    hybrid = benchmark.pedantic(_run, args=(8, True), rounds=1, iterations=1)
    assert hybrid.sim_seconds > one_job
    overhead = device.cal.cengine_overhead[Direction.COMPRESS]
    chunk = NOMINAL / 8
    fill, _, drain = job_plan(device, Algo.DEFLATE, Direction.COMPRESS,
                              chunk, chunk)
    pipeline_edges = fill[2] + drain[2]
    assert hybrid.sim_seconds == pytest.approx(
        one_job + 7 * overhead + pipeline_edges, rel=0.05
    )
