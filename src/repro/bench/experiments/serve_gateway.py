"""``serve`` — offered-load vs goodput/p99 for the multi-DPU gateway.

Not a paper figure: this experiment characterizes the tentpole serving
layer (:mod:`repro.serve`).  An open-loop arrival process offers
fixed-size compress requests (64 KiB nominal — small enough that the
C-Engine's fixed per-job overhead dominates, §V-B) to a mixed BF-2/BF-3
fleet at a sweep of request rates, batched (``max_msgs=8``) vs
unbatched (``max_msgs=1``), under the capability-aware router.

Expected shape (asserted by the BENCH_PR4 regression gates):

* unbatched goodput saturates near the fleet's per-job engine capacity
  and then *plateaus* (admission control sheds the excess rather than
  letting queues — and p99 — grow without bound: peak pending stays
  <= ``max_pending`` even at >2x overload);
* batching amortizes the per-job overhead across messages, so batched
  goodput at the unbatched saturation point is strictly higher;
* the capability-aware router beats round-robin, which wastes compress
  batches on BF-3's engine-less (SoC fallback) path.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult, generate_payload, register_experiment
from repro.dpu.device import make_device
from repro.dpu.specs import Direction
from repro.errors import NoLatencySamplesError
from repro.serve import (
    BatchPolicy,
    ServeConfig,
    ServeGateway,
    ServeRequest,
    TelemetryConfig,
)
from repro.sim import Environment

__all__ = ["run", "run_serve_point", "run_serve_sweep"]

# Small real payload (the sim clock only sees the nominal size); 64 KiB
# nominal keeps per-request engine time overhead-dominated on BF-2
# (0.25 ms fixed vs ~22 us of byte time).
_DEFAULT_ACTUAL = 1024
_NOMINAL = 64 * 1024
_DATASET = "silesia/xml"
_FLEET = ("bf2", "bf2", "bf3")
_MAX_PENDING = 64
_BATCH_MSGS = 8
_DURATION_S = 0.02
# Unbatched fleet capacity is ~7.3k req/s (2 engine-capable BF-2s at
# ~0.27 ms/job); the sweep's top point is >2x that.
_LOADS_REQ_S = (2_000, 6_000, 12_000, 24_000)

COLUMNS = [
    "config", "router", "offered_req_s", "offered", "completed", "shed",
    "goodput_mb_s", "p50_ms", "p99_ms", "sample_count", "peak_pending",
]


def _percentile_or_nan(gateway: ServeGateway, q: float) -> float:
    """Percentile tolerant of zero completions (very low offered load
    over a short window can finish the sweep with no samples)."""
    try:
        return gateway.latency_percentile(q)
    except NoLatencySamplesError:
        return float("nan")


def run_serve_point(
    offered_req_s: float,
    batch_msgs: int,
    router: str = "capability",
    duration_s: float = _DURATION_S,
    actual_bytes: int = _DEFAULT_ACTUAL,
    nominal_bytes: float = _NOMINAL,
    fleet: "tuple[str, ...]" = _FLEET,
    max_pending: int = _MAX_PENDING,
    direction: Direction = Direction.COMPRESS,
    telemetry: "TelemetryConfig | None" = None,
) -> dict:
    """One deterministic point of the offered-load sweep.

    Open-loop arrivals every ``1/offered_req_s`` sim seconds for
    ``duration_s``, then a drain; returns the point's record (offered /
    completed / shed counts, goodput over the uncompressed bytes
    actually served, sketch-backed latency percentiles with their
    explicit ``sample_count``, peak pending).  Passing ``telemetry``
    turns on the labeled per-worker/per-tenant registries without
    changing any simulated number.
    """
    env = Environment()
    devices = [make_device(env, kind) for kind in fleet]
    gateway = ServeGateway(
        env,
        devices,
        ServeConfig(
            batch=BatchPolicy(max_msgs=batch_msgs),
            router=router,
            max_pending=max_pending,
            telemetry=telemetry,
        ),
    )
    payload = bytes(generate_payload(_DATASET, actual_bytes))
    interarrival = 1.0 / offered_req_s
    n_offered = int(round(duration_s * offered_req_s))

    def driver(env):
        for i in range(n_offered):
            gateway.submit(
                ServeRequest(direction, payload, sim_bytes=nominal_bytes, req_id=i)
            )
            yield env.timeout(interarrival)
        yield from gateway.drain()

    env.run(until=env.process(driver(env)))
    elapsed = env.now
    return {
        "config": "batched" if batch_msgs > 1 else "unbatched",
        "router": router,
        "offered_req_s": offered_req_s,
        "offered": n_offered,
        "completed": gateway.completed,
        "shed": gateway.admission.shed,
        "goodput_bytes_s": (
            gateway.completed_sim_bytes / elapsed if elapsed > 0.0 else 0.0
        ),
        "p50_s": _percentile_or_nan(gateway, 50),
        "p99_s": _percentile_or_nan(gateway, 99),
        "sample_count": gateway.sample_count,
        "peak_pending": gateway.admission.peak_pending,
        "makespan_s": elapsed,
    }


def run_serve_sweep(
    actual_bytes: int = _DEFAULT_ACTUAL,
    loads_req_s: "tuple[float, ...]" = _LOADS_REQ_S,
    batch_msgs: int = _BATCH_MSGS,
) -> "tuple[dict[str, list[dict]], dict]":
    """The sweep's points under the capability router, unbatched then
    batched, one per load; plus batched round-robin at the top load.

    Returns ``(curves, round_robin)``: ``curves`` maps ``"unbatched"`` /
    ``"batched"`` to their records in ``loads_req_s`` order.
    """
    curves = {
        label: [run_serve_point(load, msgs, actual_bytes=actual_bytes)
                for load in loads_req_s]
        for msgs, label in ((1, "unbatched"), (batch_msgs, "batched"))
    }
    round_robin = run_serve_point(max(loads_req_s), batch_msgs,
                                  router="round_robin",
                                  actual_bytes=actual_bytes)
    return curves, round_robin


def _row(rec: dict) -> dict:
    return {
        "config": rec["config"],
        "router": rec["router"],
        "offered_req_s": rec["offered_req_s"],
        "offered": rec["offered"],
        "completed": rec["completed"],
        "shed": rec["shed"],
        "goodput_mb_s": rec["goodput_bytes_s"] / 1e6,
        "p50_ms": rec["p50_s"] * 1e3,
        "p99_ms": rec["p99_s"] * 1e3,
        "sample_count": rec["sample_count"],
        "peak_pending": rec["peak_pending"],
    }


@register_experiment("serve")
def run(
    actual_bytes: int = _DEFAULT_ACTUAL,
    loads_req_s: "tuple[float, ...]" = _LOADS_REQ_S,
    batch_msgs: int = _BATCH_MSGS,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment="serve",
        title=(
            f"serve: offered load vs goodput/p99, fleet {'+'.join(_FLEET)} "
            f"({_NOMINAL // 1024} KiB msgs, batch={batch_msgs}, "
            f"max_pending={_MAX_PENDING})"
        ),
        columns=COLUMNS,
    )
    curves, rr = run_serve_sweep(actual_bytes, loads_req_s, batch_msgs)
    result.rows.extend(
        _row(rec) for rec in curves["unbatched"] + curves["batched"] + [rr]
    )

    # The saturating (top) offered load doubles as the overload point.
    top = loads_req_s.index(max(loads_req_s))
    batched, unbatched = curves["batched"][top], curves["unbatched"][top]
    result.headlines["batched_vs_unbatched_goodput_at_saturation"] = (
        batched["goodput_bytes_s"] / unbatched["goodput_bytes_s"]
    )
    result.headlines["capability_vs_round_robin_goodput"] = (
        batched["goodput_bytes_s"] / rr["goodput_bytes_s"]
    )
    result.headlines["unbatched_peak_pending_overload"] = float(
        unbatched["peak_pending"]
    )
    result.notes.append(
        "goodput counts nominal uncompressed bytes of completed requests; "
        "shed requests cost nothing (bounded admission queue = backpressure)"
    )
    return result
