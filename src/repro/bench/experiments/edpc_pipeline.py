"""``edpc`` — adaptive-context coder ratio/throughput + decoupled pipeline.

Not a paper figure: this experiment characterises the ``ac`` backend
(:mod:`repro.algorithms.ac`) against the repo's DEFLATE along the two
axes EDPC trades on:

1. **ratio vs throughput** — both codecs compress the same dataset
   samples through :class:`~repro.core.api.PedalContext` with
   ``path="auto"``; ``ac`` is SoC-only (no engine core implements it)
   so its throughput is the calibrated ARM-pool rate, while DEFLATE
   rides the C-Engine.  The rows make the trade explicit: the context
   model buys ratio on skewed byte streams and pays for it in
   throughput.
2. **decoupled pipeline** — the same message sizes through
   :class:`~repro.sched.DecoupledCodecPipeline` serial vs pipelined.
   The model stage may run ``queue_depth`` chunks ahead of the range
   coder, so the pipelined makespan approaches
   ``max(model, coder)`` instead of their sum.  One grid point also
   carries real data through both dataflows and asserts byte identity,
   so the speedup is provably a scheduling effect, not a codec change.

Headlines are gated in ``BENCH_PR7.json`` (the ``edpc`` row of
``repro.bench.regress.REPORTS``).
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, generate_payload, register_experiment
from repro.core.api import PedalContext
from repro.dpu.device import make_device
from repro.sched import DecoupledCodecPipeline, DecoupledConfig
from repro.sim import Environment

__all__ = ["run", "run_ratio_rows", "run_pipeline_rows"]

# Ratio samples stay small: the pure-Python range coder is the real
# cost (~MB/s actual), and both codecs' ratios on these generators
# stabilise well below this size.
_RATIO_ACTUAL = 24 * 1024
_RATIO_DATASETS = ("silesia/xml", "silesia/mozilla", "obs_error")
_RATIO_NOMINAL = 5.1e6  # the paper's xml grid point; shared for fairness

# Pipeline sweep: growing simulated messages, byte-identity checked at
# the byte-carrying point.
_PIPE_SIM_BYTES = (0.5e6, 5e6, 48.85e6)
_PIPE_ACTUAL = 16 * 1024
_QUEUE_DEPTH = 2

COLUMNS = [
    "section", "dataset", "algo", "ratio", "sim_s", "throughput_mb_s",
    "sim_mb", "serial_s", "pipelined_s", "speedup", "bytes_identical",
]


def _drive(env: Environment, generator):
    proc = env.process(generator)
    return env.run(until=proc)


def run_ratio_rows(actual_bytes: int = _RATIO_ACTUAL) -> list[dict]:
    """ac-vs-deflate ratio/throughput rows (auto-path on a BF-2)."""
    rows = []
    for dataset in _RATIO_DATASETS:
        payload = bytes(generate_payload(dataset, actual_bytes))
        for algo in ("deflate", "ac"):
            env = Environment()
            ctx = PedalContext(make_device(env, "bf2"))
            _drive(env, ctx.init())
            t0 = env.now
            comp = _drive(env, ctx.compress(payload, algo, _RATIO_NOMINAL))
            sim_s = env.now - t0
            rows.append(
                {
                    "section": "ratio",
                    "dataset": dataset,
                    "algo": algo,
                    "ratio": comp.ratio,
                    "sim_s": sim_s,
                    "throughput_mb_s": _RATIO_NOMINAL / 1e6 / sim_s,
                    "placement": comp.resolved.compress_engine,
                }
            )
    return rows


def run_pipeline_rows(
    actual_bytes: int = _PIPE_ACTUAL,
    queue_depth: int = _QUEUE_DEPTH,
) -> list[dict]:
    """Serial vs pipelined decoupled-codec rows on a BF-2 SoC."""
    rows = []
    config = DecoupledConfig(queue_depth=queue_depth)
    data = bytes(generate_payload("silesia/xml", actual_bytes))
    for sim_bytes in _PIPE_SIM_BYTES:
        carry_bytes = sim_bytes == max(_PIPE_SIM_BYTES)
        payloads = {}
        results = {}
        for pipelined in (False, True):
            env = Environment()
            pipe = DecoupledCodecPipeline(make_device(env, "bf2"), config)
            res = _drive(
                env,
                pipe.run(
                    sim_bytes,
                    data=data if carry_bytes else None,
                    pipelined=pipelined,
                ),
            )
            results[pipelined] = res
            payloads[pipelined] = res.payload
        identical = (
            payloads[False] == payloads[True] if carry_bytes else None
        )
        rows.append(
            {
                "section": "pipeline",
                "sim_mb": sim_bytes / 1e6,
                "n_chunks": results[True].n_chunks,
                "serial_s": results[False].sim_seconds,
                "pipelined_s": results[True].sim_seconds,
                "speedup": (
                    results[False].sim_seconds / results[True].sim_seconds
                ),
                "bytes_identical": identical,
            }
        )
    return rows


@register_experiment("edpc")
def run(
    actual_bytes: int = _RATIO_ACTUAL,
    pipeline_actual_bytes: int = _PIPE_ACTUAL,
    queue_depth: int = _QUEUE_DEPTH,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="edpc",
        title=(
            "edpc: adaptive-context coder ratio/throughput + "
            f"decoupled model/coder pipeline (depth {queue_depth})"
        ),
        columns=COLUMNS,
    )
    ratio_rows = run_ratio_rows(actual_bytes)
    pipe_rows = run_pipeline_rows(pipeline_actual_bytes, queue_depth)
    result.rows.extend(ratio_rows)
    result.rows.extend(pipe_rows)

    def _ratio(dataset, algo):
        return next(
            r["ratio"] for r in ratio_rows
            if r["dataset"] == dataset and r["algo"] == algo
        )

    big = pipe_rows[-1]
    result.headlines["edpc_pipelined_vs_unpipelined_large"] = big["speedup"]
    result.headlines["edpc_bytes_identical"] = (
        1.0 if big["bytes_identical"] else 0.0
    )
    result.headlines["edpc_ac_vs_deflate_ratio_xml"] = (
        _ratio("silesia/xml", "ac") / _ratio("silesia/xml", "deflate")
    )
    result.headlines["edpc_ac_vs_deflate_ratio_obs_error"] = (
        _ratio("obs_error", "ac") / _ratio("obs_error", "deflate")
    )
    result.notes.append(
        "ac is SoC-only (no engine core), so its throughput is the "
        "calibrated ARM-pool rate; pipelined speedup is bounded by "
        "1/max(f, 1-f) of the codec time, f = AC_MODEL_FRACTION"
    )
    return result
