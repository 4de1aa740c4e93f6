"""One workload in one fresh interpreter, driven over a pipe by ``run.py``.

Life of a worker: set-up (import ``repro``, generate the seeded inputs,
pre-compress decode inputs, one untimed warm-up rep) → ``{"ready": …}``
→ one timed rep per ``rep`` command → verification on ``finish``.
Set-up and every rep are bracketed by the calibration kernel
(:mod:`calibration`), whose seconds the parent divides by.

stdout carries only the protocol (one JSON object per line); anything the
library prints is sent to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from time import perf_counter

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(os.path.dirname(_HERE)), "src")


def _obs_counts(tracer, registry) -> "dict[str, float]":
    """Sim-side quantities the library's own telemetry recorded."""
    counts: dict[str, float] = {"obs.spans": float(len(tracer.spans))}
    snapshot = registry.as_dict()
    counts.update(snapshot["counters"])
    for name, hist in snapshot["histograms"].items():
        counts[f"{name}.sum"] = hist["sum"]
    sums = {"doca.init": 0.0, "buffer.prep": 0.0}
    chunks = 0
    for span in tracer.spans:
        if span.name in sums:
            sums[span.name] += span.sim_duration
        elif span.name == "mpi.stream_send":
            chunks += span.attrs.get("chunks", 0)
    counts["sim.doca_init_s"] = sums["doca.init"]
    counts["sim.buffer_prep_s"] = sums["buffer.prep"]
    counts["mpi.stream_chunks"] = float(chunks)
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the last traced rep's spans here (JSONL)")
    args = parser.parse_args()

    protocol = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def send(message: dict) -> None:
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    if not os.path.isdir(os.path.join(_SRC, "repro")):
        print(f"worker: no repro package under {_SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [_SRC, _HERE]

    from calibration import calibrate
    calibrate()  # the first call pays numpy's own lazy set-up
    # Set-up takes seconds, so the kernel runs at each of its stages.
    cal_setup = [calibrate()]
    from repro import obs
    from inputs import Inputs
    from layers import ENTRIES, derive, hottest
    from tracing import Tracing, write_spans
    from workloads import REGISTRY

    tracing = Tracing(ENTRIES) if args.trace else None
    if tracing is not None:
        tracing.install()
    cal_setup.append(calibrate())
    inputs = Inputs(args.seed)
    workload = REGISTRY[args.workload](inputs, quick=args.quick)
    cal_setup.append(calibrate())
    out = workload.rep()  # warm-up: fills memos, pools and lazy tables
    cal_setup.append(calibrate())
    account = workload.account(out)
    send({"ready": True, "inputs_sha256": inputs.sha256(),
          "ops_per_rep": account.ops,
          "cal_s": sum(cal_setup) / len(cal_setup)})
    if args.setup_only:
        return 0

    recorder = tracing.recorder if tracing is not None else None
    workload.recorder = recorder
    last_spans: list = []
    for line in sys.stdin:
        command = line.strip()
        if command == "rep":
            out = None
            gc.collect()
            cal_before = calibrate()
            if recorder is None:
                start = perf_counter()
                out = workload.rep()
                wall = perf_counter() - start
                layers = hot = None
            else:
                with obs.tracing() as tracer, obs.collecting() as registry:
                    recorder.active = True
                    root = recorder.begin("bench", "rep")
                    start = perf_counter()
                    out = workload.rep()
                    wall = perf_counter() - start
                    recorder.end(root)
                    recorder.active = False
                last_spans, returns = recorder.take()
            cal_s = (cal_before + calibrate()) / 2.0
            account = workload.account(out)
            if recorder is not None:
                counts = _obs_counts(tracer, registry)
                for name, value in account.counts.items():
                    counts[name] = counts.get(name, 0.0) + value
                counts.update({f"ret.{k}": v for k, v in returns.items()})
                layers = derive(last_spans, counts, wall)
                hot = [(name, seconds / wall)
                       for name, seconds in hottest(last_spans, top=5)]
            send({
                "wall_s": wall, "cal_s": cal_s, "ops": account.ops,
                "refused": account.refused,
                "raw_bytes": account.raw_bytes,
                "packed_bytes": account.packed_bytes, "digest": account.digest,
                "sim": account.sim, "layers": layers,
                "hottest": hot,
            })
        elif command == "finish":
            failures = workload.verify(out)
            if tracing is not None:
                tracing.restore()
                if args.spans:
                    write_spans(args.spans, last_spans)
            send({
                "failures": failures,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
            return 0
        else:
            print(f"worker: unknown command {command!r}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
