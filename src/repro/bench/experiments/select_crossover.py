"""``select`` — the SoC-vs-C-Engine crossover curve under path="auto".

The paper's dispatch story (§V, Fig. 8): below a per-(device,
direction) message size the fixed C-Engine job overhead dominates and
the SoC wins; above it the engine's order-of-magnitude throughput
advantage takes over.  This experiment sweeps DEFLATE ops from 1 KiB
to 16 MiB on BF-2 and BF-3, timing the forced SoC path, the forced
C-Engine path, and ``path="auto"`` (the :mod:`repro.select` cost-model
dispatch), and checks the paper shape:

* SoC wins below the calibrated crossover, the C-Engine above it;
* ``auto`` always lands on the cheapest capable path — its latency is
  never worse than the best static path by more than
  ``regress.SELECT_TOLERANCE``;
* BF-3 *compress* never routes to the engine (Tables II/III: its
  C-Engine is decompress-only), at any size;
* steady-state decisions come from the memoized crossover cache.

``BENCH_PR5.json`` gates all of this bit-for-bit plus banded
(the model crossovers must stay within a factor-2 band of the
calibrated tables' closed-form values).
"""

from __future__ import annotations

from typing import Any

from repro.bench.harness import ExperimentResult, generate_payload, register_experiment
from repro.core.api import PedalContext
from repro.dpu.device import make_device
from repro.dpu.specs import Algo, Direction
from repro.sim import Environment

__all__ = ["run", "run_select_sweep"]

_DATASET = "silesia/xml"
_DEFAULT_ACTUAL = 1024
# 1 KiB .. 16 MiB, factor-2 sweep (15 points per grid cell).
_SIZES = tuple(1024 * (1 << i) for i in range(15))
_GRID = (
    ("bf2", Direction.COMPRESS),
    ("bf2", Direction.DECOMPRESS),
    ("bf3", Direction.COMPRESS),
    ("bf3", Direction.DECOMPRESS),
)

COLUMNS = [
    "device", "direction", "size_bytes", "soc_ms", "cengine_ms",
    "auto_ms", "auto_path", "model_crossover_bytes",
]


def _run(env: Environment, gen):
    return env.run(until=env.process(gen))


def run_select_sweep(
    actual_bytes: int = _DEFAULT_ACTUAL,
    sizes: "tuple[int, ...]" = _SIZES,
) -> dict[str, Any]:
    """The deterministic sweep behind ``BENCH_PR5.json``.

    Returns ``rows`` keyed ``{device}_{direction}_{size}`` (forced-SoC
    / forced-C-Engine / auto sim seconds plus auto's chosen path) and
    the condensed ``headlines`` the bands gate.
    """
    payload = bytes(generate_payload(_DATASET, actual_bytes))
    rows: dict[str, dict[str, Any]] = {}
    crossovers: dict[str, float] = {}
    shape_ok = True
    bf3_compress_engine_picks = 0
    auto_vs_best_max = 0.0
    cache_hits = 0
    cache_lookups = 0

    for device_kind, direction in _GRID:
        env = Environment()
        device = make_device(env, device_kind)
        ctx = PedalContext(device)
        _run(env, ctx.init())
        capable = device.cengine.supports(Algo.DEFLATE, direction)
        crossover = ctx.selector.crossover_bytes(Algo.DEFLATE, direction)
        if capable:
            crossovers[f"{device_kind}_{direction.value}"] = crossover

        container = None
        if direction is Direction.DECOMPRESS:
            container = _run(
                env, ctx.compress(payload, "deflate", path="soc")
            ).message

        first_point = None
        last_point = None
        for size in sizes:
            if direction is Direction.COMPRESS:
                soc = _run(env, ctx.compress(
                    payload, "deflate", sim_bytes=size, path="soc"))
                eng = _run(env, ctx.compress(
                    payload, "deflate", sim_bytes=size, path="cengine"))
                auto = _run(env, ctx.compress(
                    payload, "deflate", sim_bytes=size, path="auto"))
                auto_path = auto.resolved.compress_engine
            else:
                soc = _run(env, ctx.decompress(
                    container, placement="soc", sim_bytes=size))
                eng = _run(env, ctx.decompress(
                    container, placement="cengine", sim_bytes=size))
                auto = _run(env, ctx.decompress(
                    container, placement="auto", sim_bytes=size))
                auto_path = auto.resolved.decompress_engine

            # Best *static* path: the SoC always, the engine only where
            # the capability matrix makes it a real alternative.
            best_static = min(soc.sim_seconds, eng.sim_seconds) if capable \
                else soc.sim_seconds
            auto_vs_best_max = max(
                auto_vs_best_max, auto.sim_seconds / best_static
            )
            if device_kind == "bf3" and direction is Direction.COMPRESS \
                    and auto_path == "cengine":
                bf3_compress_engine_picks += 1
            # Auto must sit on the crossover's side of the fence.
            expected = "cengine" if capable and size >= crossover else "soc"
            if auto_path != expected:
                shape_ok = False

            point = {
                "soc_s": soc.sim_seconds,
                "cengine_s": eng.sim_seconds,
                "auto_s": auto.sim_seconds,
                "auto_path": auto_path,
            }
            rows[f"{device_kind}_{direction.value}_{size}"] = point
            first_point = first_point or point
            last_point = point

        if capable:
            # Paper shape: SoC wins the smallest size, engine the
            # largest (the sweep brackets the crossover).
            if not (first_point["soc_s"] <= first_point["cengine_s"]
                    and last_point["cengine_s"] < last_point["soc_s"]):
                shape_ok = False
            if not (sizes[0] < crossover < sizes[-1]):
                shape_ok = False

        info = ctx.selector.cache_info()
        cache_hits += info["hits"]
        cache_lookups += info["hits"] + info["misses"]
        _run(env, ctx.finalize())

    headlines: dict[str, float] = {
        "select_auto_vs_best_static_max": auto_vs_best_max,
        "select_bf3_compress_engine_picks": float(bf3_compress_engine_picks),
        "select_paper_shape_ok": 1.0 if shape_ok else 0.0,
        "select_cache_hit_rate": cache_hits / cache_lookups,
    }
    for key, value in crossovers.items():
        headlines[f"select_crossover_{key}_bytes"] = value
    return {"rows": rows, "headlines": headlines}


@register_experiment("select")
def run(actual_bytes: int = _DEFAULT_ACTUAL) -> ExperimentResult:
    sweep = run_select_sweep(actual_bytes=actual_bytes)
    result = ExperimentResult(
        experiment="select",
        title=(
            "select: SoC vs C-Engine crossover under path=\"auto\" "
            f"(DEFLATE, {_SIZES[0] // 1024} KiB .. "
            f"{_SIZES[-1] // (1 << 20)} MiB)"
        ),
        columns=COLUMNS,
    )
    for device_kind, direction in _GRID:
        key = f"{device_kind}_{direction.value}"
        crossover = sweep["headlines"].get(f"select_crossover_{key}_bytes")
        for size in _SIZES:
            point = sweep["rows"][f"{key}_{size}"]
            result.rows.append(
                {
                    "device": device_kind,
                    "direction": direction.value,
                    "size_bytes": size,
                    "soc_ms": point["soc_s"] * 1e3,
                    "cengine_ms": point["cengine_s"] * 1e3,
                    "auto_ms": point["auto_s"] * 1e3,
                    "auto_path": point["auto_path"],
                    "model_crossover_bytes": (
                        "-" if crossover is None else round(crossover)
                    ),
                }
            )
    result.headlines.update(sweep["headlines"])
    result.notes.append(
        "auto == cost-model dispatch; crossover '-' marks ops the "
        "capability matrix keeps off the engine (BF-3 compress)"
    )
    return result
