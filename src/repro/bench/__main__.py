"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench all
    python -m repro.bench fig8 table5 --actual-bytes 262144
    python -m repro.bench fig7 --trace fig7.trace.json --metrics fig7.metrics.json
    python -m repro.bench fig7 fig9 --json out.json

``--trace`` records every simulated operation as dual-clock spans and
writes a Chrome trace-event file (open it in https://ui.perfetto.dev or
``chrome://tracing``); ``--trace-jsonl`` writes the same spans as a
JSONL event log.  ``--metrics`` dumps the counters/gauges/histograms
collected during the run.  ``--flamegraph`` profiles the codec kernels
(wall clock, deterministic sampled exemplars) and writes collapsed
stacks for flamegraph.pl / speedscope.  ``--json`` writes the
experiment grids in machine-readable form instead of scraping stdout.

``--faults`` runs every requested experiment under a deterministic
fault-injection plan (see :mod:`repro.faults`), e.g.::

    python -m repro.bench fig7 --faults seed=42,engine_fail=1.0 --metrics m.json

Retries/fallbacks show up in the metrics dump under ``faults.*`` and
the compressed artifacts stay byte-identical (persistent engine
failures escalate to the SoC pipeline).

Progress lines go through the ``repro.bench`` logger — silent unless
``REPRO_LOG=info`` (or ``debug``) is set.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import obs
from repro.bench import experiments  # noqa: F401  (registers every id)
from repro.bench.harness import EXPERIMENTS, run_experiment
from repro.faults import FaultPlan, parse_fault_spec, set_fault_plan

log = obs.get_logger("bench")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pedal-bench",
        description="Regenerate the PEDAL paper's evaluation tables/figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}) or 'all'",
    )
    parser.add_argument(
        "--actual-bytes",
        type=int,
        default=None,
        help="synthetic payload budget per dataset (default per experiment)",
    )
    parser.add_argument(
        "--pipeline-depth",
        type=int,
        default=None,
        help=(
            "C-Engine work-queue depth for the 'sched' experiment "
            "(1 = serial; default measures depths 1, 2, 4)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a Chrome trace-event JSON (sim-clock timeline) to PATH",
    )
    parser.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        default=None,
        help="write the recorded spans as a JSONL event log to PATH",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write collected metrics (counters/gauges/histograms) to PATH",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write experiment rows + metadata as JSON to PATH",
    )
    parser.add_argument(
        "--flamegraph",
        metavar="PATH",
        default=None,
        help=(
            "profile codec kernels (wall clock, sampled exemplars) and "
            "write collapsed stacks to PATH (flamegraph.pl / speedscope)"
        ),
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help=(
            "run under a deterministic fault plan, e.g. "
            "'seed=42,engine_fail=0.5,corrupt_output=0.1' "
            "(keys: FaultConfig fields)"
        ),
    )
    args = parser.parse_args(argv)

    fault_config = parse_fault_spec(args.faults) if args.faults else None

    names: list[str] = []
    for name in args.experiments:
        names.extend(EXPERIMENTS if name == "all" else [name])

    tracer = obs.Tracer() if (args.trace or args.trace_jsonl) else None
    metrics = obs.MetricsRegistry() if args.metrics else None
    profiler = obs.CodecProfiler() if args.flamegraph else None
    prev_tracer = obs.set_tracer(tracer) if tracer is not None else None
    prev_metrics = obs.set_metrics(metrics) if metrics is not None else None
    prev_profiler = (
        obs.set_profiler(profiler) if profiler is not None else None
    )
    prev_plan = (
        set_fault_plan(FaultPlan(fault_config))
        if fault_config is not None
        else None
    )
    if fault_config is not None:
        log.info("fault plan active: %s", args.faults)

    results = []
    try:
        for name in names:
            kwargs = {}
            if args.actual_bytes is not None:
                kwargs["actual_bytes"] = args.actual_bytes
            if name == "sched" and args.pipeline_depth is not None:
                kwargs["pipeline_depths"] = (1, args.pipeline_depth)
            started = time.time()
            result = run_experiment(name, **kwargs)
            results.append(result)
            print(result.render())
            print()
            log.info("%s regenerated in %.1fs", name, time.time() - started)
    finally:
        if tracer is not None:
            obs.set_tracer(prev_tracer)
        if metrics is not None:
            obs.set_metrics(prev_metrics)
        if profiler is not None:
            obs.set_profiler(prev_profiler)
        if fault_config is not None:
            set_fault_plan(prev_plan)

    if tracer is not None and args.trace:
        n = obs.write_chrome_trace(tracer, args.trace)
        log.info("wrote %d spans to %s", n, args.trace)
    if tracer is not None and args.trace_jsonl:
        obs.write_jsonl(tracer, args.trace_jsonl, metrics=metrics)
        log.info("wrote span JSONL to %s", args.trace_jsonl)
    if metrics is not None and args.metrics:
        obs.write_metrics_json(metrics, args.metrics)
        log.info("wrote metrics to %s", args.metrics)
    if profiler is not None and args.flamegraph:
        n = obs.write_flamegraph(profiler, args.flamegraph)
        log.info("wrote %d collapsed stacks to %s", n, args.flamegraph)
    if args.json:
        payload = {
            "generator": "repro.bench",
            "experiments": [result.as_dict() for result in results],
            "args": {"actual_bytes": args.actual_bytes, "faults": args.faults},
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        log.info("wrote experiment JSON to %s", args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
