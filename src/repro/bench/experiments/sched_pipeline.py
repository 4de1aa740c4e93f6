"""``sched`` — pipelined C-Engine work queue vs serial submission.

Not a paper figure: this experiment quantifies the tentpole extension
of :mod:`repro.sched` on the paper's PPAR future-work design (§IV,
§V-C2).  A multi-chunk workload is driven through the bounded-depth
pipeline at several queue depths on both device generations; depth 1 is
the serial reference (map, exec, drain complete before the next chunk
starts), deeper queues overlap the stages across chunks.

Headlines asserted by the regression harness
(``benchmarks/regress.py`` / ``tests/bench/test_regression_gates.py``):

* pipelined (depth >= 2) beats serial on every engine-capable grid
  point;
* deeper-than-2 queues add little once the engine's single-server exec
  stage saturates (the ZipLine bounded-queue argument).
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, register_experiment
from repro.core.parallel import ParallelCompressor, ParallelConfig
from repro.datasets import get_dataset
from repro.dpu.device import make_device
from repro.dpu.specs import Direction
from repro.sim import Environment

__all__ = ["run"]

# 8 KiB of real payload keeps the pure-Python DEFLATE work negligible;
# the simulated size is the paper's 48.85 MB mozilla workload.
_DEFAULT_ACTUAL = 8 * 1024
_NOMINAL = 48.85e6
_DATASET = "silesia/mozilla"

COLUMNS = [
    "device", "direction", "n_chunks", "depth",
    "sim_s", "speedup_vs_serial", "chunks_on_engine",
]


def _run_once(device_kind: str, direction: Direction, n_chunks: int,
              depth: int, actual_bytes: int):
    env = Environment()
    device = make_device(env, device_kind)
    payload = get_dataset(_DATASET).generate(actual_bytes)
    pc = ParallelCompressor(
        device, ParallelConfig(n_chunks=n_chunks, pipeline_depth=depth)
    )
    if direction is Direction.COMPRESS:
        proc = env.process(pc.compress(payload, _NOMINAL))
        return env.run(until=proc)
    comp_env = Environment()
    comp_pc = ParallelCompressor(
        make_device(comp_env, device_kind),
        ParallelConfig(n_chunks=n_chunks, pipeline_depth=depth),
    )
    comp_proc = comp_env.process(comp_pc.compress(payload, _NOMINAL))
    container = comp_env.run(until=comp_proc).payload
    proc = env.process(pc.decompress(container, _NOMINAL))
    return env.run(until=proc)


@register_experiment("sched")
def run(
    actual_bytes: int = _DEFAULT_ACTUAL,
    pipeline_depths: "tuple[int, ...]" = (1, 2, 4),
    n_chunks: int = 8,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="sched",
        title=(
            f"sched: pipelined vs serial C-Engine work queue "
            f"({n_chunks}-chunk RST1 parallel container, {_NOMINAL / 1e6:.4g} MB nominal)"
        ),
        columns=COLUMNS,
    )
    depths = tuple(sorted(set(pipeline_depths)))
    if 1 not in depths:
        depths = (1,) + depths  # the serial reference is always measured
    for device in ("bf2", "bf3"):
        for direction in (Direction.COMPRESS, Direction.DECOMPRESS):
            serial_s = None
            for depth in depths:
                rec = _run_once(device, direction, n_chunks, depth, actual_bytes)
                if depth == 1:
                    serial_s = rec.sim_seconds
                result.rows.append(
                    {
                        "device": device,
                        "direction": direction.value,
                        "n_chunks": n_chunks,
                        "depth": depth,
                        "sim_s": rec.sim_seconds,
                        "speedup_vs_serial": (
                            serial_s / rec.sim_seconds if rec.sim_seconds else 1.0
                        ),
                        "chunks_on_engine": rec.chunks_on_engine,
                    }
                )

    def _row(device, direction, depth):
        return next(
            r for r in result.rows
            if r["device"] == device and r["direction"] == direction
            and r["depth"] == depth
        )

    # BF2 runs both directions on the engine; BF3 only decompression —
    # headline the engine-capable grid points at the deepest queue run.
    headline_depth = max(depths)
    for device, direction in (
        ("bf2", "compress"), ("bf2", "decompress"), ("bf3", "decompress")
    ):
        result.headlines[
            f"{device}_{direction}_pipelined_vs_serial (depth {headline_depth})"
        ] = _row(device, direction, headline_depth)["speedup_vs_serial"]
    result.notes.append(
        "depth 1 = serial map/exec/drain per chunk; BF3 compression has no "
        "engine path (Table III), so its rows pipeline nothing and stay flat"
    )
    return result
