#!/usr/bin/env python3
"""The repo's two-clock benchmark: one command, every metric by name.

Suite (what a person runs)::

    python benchmarks/perf/run.py [--seed N] [--workload W ...] [--rounds R]
                                  [--trace] [--quick] [--out FILE]
    python benchmarks/perf/run.py compare A.json B.json
    python benchmarks/perf/run.py spec        # prints BENCHMARK.json

One run (what the driver runs; prints one JSON object as its last line)::

    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Each workload runs in its own fresh worker process (``worker.py``); reps
are interleaved round-robin across the live workers, one active at a
time.  See README.md for the protocol and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from calibration import CAL_REF_S  # noqa: E402
from compare import compare_files  # noqa: E402
from metrics import (DEFAULT_SEED, END_TO_END, PER_LAYER,  # noqa: E402
                     SUITE_ONLY, WORKLOADS, applicable, benchmark_spec)

DEFAULT_ROUNDS = 7
MIN_REPS = 3           # a median needs at least this many
SETUPS_PER_RUN = 3     # set-up is measured this many times; its median is reported
TRACED_REPS = 2

_WORKER_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The harness itself failed (a worker died, a protocol error)."""


class Lane:
    """One live worker: a workload, traced or not."""

    def __init__(self, workload: str, seed: int, quick: bool, traced: bool,
                 setup_only: bool = False, spans: "str | None" = None) -> None:
        self.workload, self.traced = workload, traced
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", workload, "--seed", str(seed)]
        argv += ["--quick"] * quick + ["--trace"] * traced
        argv += ["--setup-only"] * setup_only
        if spans:
            argv += ["--spans", spans]
        start = perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, **_WORKER_ENV})
        self.ready = self._read()
        self.setup_raw_s = perf_counter() - start
        # Reference-machine seconds (see calibration.py).
        self.setup_s = self.setup_raw_s * CAL_REF_S / self.ready["cal_s"]
        self.reps: list[dict] = []

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(
                f"{self.workload} worker exited with code {self.proc.wait()} "
                "(its stderr is above)")
        return json.loads(line)

    def _command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def rep(self) -> None:
        self.reps.append(self._command("rep"))

    def finish(self) -> dict:
        reply = self._command("finish")
        self.close()
        return reply

    def close(self) -> None:
        """Stop the worker and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _calibrated(rep: dict) -> float:
    """A rep's host seconds in reference-machine seconds."""
    return rep["wall_s"] * CAL_REF_S / rep["cal_s"]


def _quartiles(values: "list[float]") -> "tuple[float, float]":
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summarise(name: str, lane: Lane, traced: "Lane | None",
               setups: "list[float]", final: dict,
               traced_final: "dict | None") -> dict:
    """Fold one workload's reps into its result record."""
    reps = lane.reps
    first = reps[0]
    walls = [_calibrated(r) for r in reps]
    wall = statistics.median(walls)
    q1, q3 = _quartiles(walls)
    attempted = sum(r["ops"] for r in reps)
    refused = sum(r["refused"] for r in reps)
    failures = list(final["failures"])
    # Sim-clock numbers and output bytes must repeat bit for bit.
    for i, rep in enumerate(reps[1:], 1):
        if rep["digest"] != first["digest"] or rep["sim"] != first["sim"]:
            failures += [f"{name}: rep {i} outputs or sim metrics differ "
                         "from rep 0"] * rep["ops"]
    layers: dict[str, float] = {}
    hottest = None
    if traced is not None:
        failures += traced_final["failures"]
        for rep in traced.reps:
            if rep["sim"] != first["sim"] or rep["digest"] != first["digest"]:
                failures.append(f"{name}: traced run's sim metrics or outputs "
                                "differ from the untraced run's")
        for key in traced.reps[0]["layers"]:
            layers[key] = statistics.median(
                r["layers"][key] for r in traced.reps)
        layers["bench.trace_overhead_ratio"] = statistics.median(
            _calibrated(r) for r in traced.reps) / wall
        hottest = traced.reps[-1]["hottest"]
    failed = min(len(failures), attempted)
    # ``ok_frac`` counts wrong results only; a request an open-loop
    # workload sheds is a designed outcome that ``failed_frac`` (and the
    # latency-limit metric) count as a miss.
    failed_frac = (failed + refused) / attempted
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": final["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
        "compression_ratio": first["raw_bytes"] / first["packed_bytes"],
        "failed_frac": failed_frac,
        **first["sim"],
    }
    layers.update({
        "bench.wall_us_per_op": wall / first["ops"] * 1e6,
        "bench.codec_wall_mb_s": first["raw_bytes"] / 1e6 / wall,
        "bench.wall_iqr_frac": (q3 - q1) / wall,
        "bench.ops": float(first["ops"]),
    })
    return {
        "end_to_end": end_to_end,
        "layers": layers,
        "wall_samples": {"n": len(walls), "min": min(walls), "q1": q1,
                         "median": wall, "q3": q3, "values": walls,
                         "raw_median": statistics.median(
                             r["wall_s"] for r in reps)},
        "setup_samples": setups,
        "attempted": attempted, "refused": refused, "failed": failed,
        "failures": failures[:20],
        "inputs_sha256": lane.ready["inputs_sha256"],
        "outputs_sha256": first["digest"],
        "hottest_spans": hottest,
    }


def measure(names: "list[str]", seed: int, quick: bool,
            rounds: "int | None", seconds: "float | None", trace: bool,
            setups_per_run: int = 1, spans_dir: "str | None" = None) -> dict:
    """Run ``names`` and return ``{workload: result record}``.

    Reps go round-robin — rep *r* of every workload before rep *r+1* of
    any — until ``rounds`` rounds are done or ``seconds`` have passed
    (at least ``MIN_REPS`` rounds either way).  With ``trace``, each
    workload also has a traced worker whose reps are interleaved with
    the untraced ones (``TRACED_REPS`` of them unless time-limited).
    """
    lanes: dict[str, Lane] = {}
    traced: dict[str, Lane] = {}
    setups: dict[str, list[float]] = {name: [] for name in names}
    try:
        for name in names:
            for _ in range(setups_per_run - 1):
                extra = Lane(name, seed, quick, traced=False, setup_only=True)
                extra.close()
                setups[name].append(extra.setup_s)
            lanes[name] = Lane(name, seed, quick, traced=False)
            setups[name].append(lanes[name].setup_s)
            if trace:
                spans = (os.path.join(spans_dir, f"{name}.spans.jsonl")
                         if spans_dir else None)
                traced[name] = Lane(name, seed, quick, traced=True, spans=spans)
        start = perf_counter()
        done = 0
        while True:
            for name in names:
                lanes[name].rep()
                if trace and (seconds is not None or done < TRACED_REPS):
                    traced[name].rep()
            done += 1
            if done < MIN_REPS:
                continue
            if rounds is not None and done >= rounds:
                break
            if seconds is not None and perf_counter() - start >= seconds:
                break
        results = {}
        for name in names:
            final = lanes[name].finish()
            traced_final = traced[name].finish() if trace else None
            results[name] = _summarise(
                name, lanes[name], traced.get(name), setups[name], final,
                traced_final)
        return results
    finally:
        for lane in (*lanes.values(), *traced.values()):
            lane.close()


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _driver_line(result: dict, trace: bool) -> dict:
    """The one JSON object the driver reads."""
    if trace:
        metrics = {m.name: {"value": result["layers"].get(
            m.name, result["end_to_end"].get(m.name, 0.0)), "unit": m.unit}
            for m in PER_LAYER}
    else:
        metrics = {m.name: {"value": result["end_to_end"][m.name],
                            "unit": m.unit} for m in END_TO_END}
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def _print_report(results: dict, trace: bool) -> None:
    for name, result in results.items():
        print(f"\n== {name} ==  ({WORKLOADS[name]})")
        for metric in (*END_TO_END, *SUITE_ONLY):
            if not applicable(metric, name):
                continue
            value = result["end_to_end"].get(metric.name)
            if value is None:
                continue
            print(f"  {metric.name:<32} {value:>16.6f} {metric.unit}")
        samples = result["wall_samples"]
        print(f"  wall_s reps: n={samples['n']} min={samples['min']:.4f} "
              f"q1={samples['q1']:.4f} q3={samples['q3']:.4f} "
              f"(uncalibrated median {samples['raw_median']:.4f} s); "
              f"ops attempted {result['attempted']}, refused "
              f"{result['refused']}, failed {result['failed']}")
        for failure in result["failures"]:
            print(f"  FAILED: {failure}")
        if trace:
            print("  -- per-layer (traced run) --")
            for metric in PER_LAYER:
                value = result["layers"].get(metric.name)
                if value:
                    print(f"  {metric.name:<36} {value:>16.6f} {metric.unit}")
            print("  hottest spans (self time, share of the rep): " + ", ".join(
                f"{name} {share:.1%}"
                for name, share in result["hottest_spans"]))


def _environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare_files(args.a, args.b)
    if argv == ["spec"]:
        print(json.dumps(benchmark_spec(), indent=2))
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload(s) to run (default: all seven)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--rounds", type=int,
                        help=f"rounds per workload (default {DEFAULT_ROUNDS})")
    parser.add_argument("--seconds", type=float,
                        help="measure for this long instead of --rounds and "
                             "print the driver's one-line JSON result")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also run the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="tiny size class (the harness self-tests)")
    parser.add_argument("--out", help="write the result JSON here")
    parser.add_argument("--spans-dir",
                        help="write each traced workload's spans here (JSONL)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    driver_mode = args.seconds is not None
    if driver_mode and len(names) != 1:
        parser.error("--seconds takes exactly one --workload")
    rounds = None if driver_mode else (args.rounds or DEFAULT_ROUNDS)
    try:
        results = measure(
            names, args.seed, args.quick, rounds, args.seconds,
            bool(args.trace),
            # A traced driver run reports no set-up time: measure it once.
            setups_per_run=(
                1 if driver_mode and args.trace else SETUPS_PER_RUN),
            spans_dir=args.spans_dir)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    _print_report(results, bool(args.trace))
    record = {"seed": args.seed, "quick": args.quick, "traced": bool(args.trace),
              "rounds": rounds, "seconds": args.seconds,
              "environment": _environment(), "workloads": results}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    failed = sum(r["failed"] for r in results.values())
    if driver_mode:
        print(json.dumps(_driver_line(results[names[0]], bool(args.trace))))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
