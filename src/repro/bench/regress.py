"""The committed bench reports (``BENCH_PR*.json``), one table row each.

:data:`REPORTS` maps a report name to its file, the function that
re-runs its experiment, and its sections:

========  ===============  =====================================  ==========
name      file             what it records                        sections
========  ===============  =====================================  ==========
core      BENCH_PR3.json   PEDAL vs naive (Fig. 7), BF-3 vs BF-2  top: exact
                           engine decompress (Fig. 8), pipelined
                           vs serial work queue on the RST1
                           parallel container
serve     BENCH_PR4.json   gateway offered load vs goodput/p99,   top: exact
                           batched vs unbatched, capability vs
                           round-robin routing
select    BENCH_PR5.json   SoC vs C-Engine crossover sweep under  top: exact
                           ``path="auto"``
obs       BENCH_PR6.json   fleet sketch error, SLO alerts,        sim: exact
                           telemetry on == off; telemetry         wall: wall
                           overhead and top codec kernel
edpc      BENCH_PR7.json   AC vs DEFLATE ratio, decoupled         top: exact
                           model/coder pipeline speedup
wall      BENCH_PR8.json   production kernels vs their reference  wall: wall
                           twins, per-codec MB/s
cluster   BENCH_PR9.json   sharded-cluster goodput at 10-100x     top: exact
                           load, mid-run worker-kill failover
stream    BENCH_PR10.json  streamed vs whole-message rendezvous   top: exact
========  ===============  =====================================  ==========

A section is the report's top level or its ``sim`` / ``wall`` sub-dict;
each has its own ``headlines`` and its own bands, ``(floor, ceiling)``
with ``None`` for an open side.  An *exact* section is simulated clock
and real codec bytes, a pure function of the cost model, the scheduler
and the seeds, so the tests re-collect it and compare it with the
committed file bit-for-bit (floats at rel 1e-12).  A *wall* section is
host-local wall clock: it is re-measured wherever the gate runs and
only has to stay inside its bands.

:func:`collect` re-runs one report, :func:`gate` checks its bands.
``python benchmarks/regress.py`` collects and gates every report and
then writes all of them or none.  A change to the cost model, the
scheduler or a codec's output regenerates the files in the same PR, so
the diff *is* the perf trajectory, reviewed like any other artifact.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.algorithms import huffman, lz4
from repro.algorithms.ac import ac_compress
from repro.algorithms.deflate import compress as deflate_stages
from repro.algorithms.deflate import deflate_compress
from repro.algorithms.gzip_format import gzip_compress
from repro.algorithms.lz77 import TokenStream, tokenize
from repro.algorithms.sz3 import SZ3Compressor, SZ3Config, sz3_compress
from repro.algorithms.zlib_format import zlib_compress
from repro.algorithms.zstdlite import zstdlite_compress
from repro.bench.experiments import (
    cluster_fleet,
    edpc_pipeline,
    obs_telemetry,
    sched_pipeline,
    select_crossover,
    serve_gateway,
    stream_fabric,
)
from repro.bench.harness import (
    generate_payload,
    run_naive_roundtrip,
    run_pedal_roundtrip,
)
from repro.datasets import get_dataset
from repro.dpu.specs import Direction
from repro.serve import TelemetryConfig

SCHEMA = 1

Bands = dict[str, tuple[float | None, float | None]]


@dataclass(frozen=True)
class Section:
    """One gated part of a report: its headline bands, and whether a
    fresh collection must reproduce it exactly (sim clock) or is wall
    clock, gated on the bands alone."""

    bands: Bands
    exact: bool = True


@dataclass(frozen=True)
class Report:
    """One ``BENCH_PR*.json``: the file at the repo root, the function
    that re-runs the experiment (everything but ``schema`` and
    ``generator``), and the sections, keyed ``""`` for the top level."""

    path: str
    run: "Callable[[], dict[str, Any]]"
    sections: "dict[str, Section]"


# -- core (BENCH_PR3) --------------------------------------------------
_ROUNDTRIP_DATASET = "silesia/xml"   # the paper's 5.1 MB grid point
_PPAR_CHUNKS = 8
_PPAR_DEPTH = 2

# Floors are deliberately loose versions of the paper's factors; the
# exact-trajectory check in the tests is the tight screw.
BANDS: Bands = {
    # Fig. 7: DOCA init + buffer prep dominate the naive flow.
    "pedal_vs_naive_deflate_xml": (5.0, None),
    # Fig. 8: the BF3 engine generation is faster at decompression.
    "bf3_vs_bf2_engine_decompress": (1.0, None),
    # Pipelining must strictly beat serial submission.
    "pipelined_vs_serial_bf2_compress": (1.0, None),
    "pipelined_vs_serial_bf2_decompress": (1.0, None),
    "pipelined_vs_serial_bf3_decompress": (1.0, None),
    # The bounded queue actually fills to its configured depth.
    "sched_occupancy_max": (float(_PPAR_DEPTH), None),
}


def _core() -> "dict[str, Any]":
    # A small real payload: the sim-clock headlines do not depend on it.
    actual_bytes = sched_pipeline._DEFAULT_ACTUAL
    headlines: "dict[str, float]" = {}
    rows: "dict[str, float]" = {}

    pedal = run_pedal_roundtrip(
        "bf2", "C-Engine_DEFLATE", _ROUNDTRIP_DATASET, actual_bytes=actual_bytes
    )
    naive = run_naive_roundtrip(
        "bf2", "C-Engine_DEFLATE", _ROUNDTRIP_DATASET, actual_bytes=actual_bytes
    )
    pedal_total = pedal.compress_seconds + pedal.decompress_seconds
    naive_total = naive.compress_seconds + naive.decompress_seconds
    headlines["pedal_vs_naive_deflate_xml"] = naive_total / pedal_total
    rows["roundtrip_bf2_pedal_s"] = pedal_total
    rows["roundtrip_bf2_naive_s"] = naive_total

    bf3 = run_pedal_roundtrip(
        "bf3", "C-Engine_DEFLATE", _ROUNDTRIP_DATASET, actual_bytes=actual_bytes
    )
    headlines["bf3_vs_bf2_engine_decompress"] = (
        pedal.decompress_seconds / bf3.decompress_seconds
    )
    rows["decompress_bf2_engine_s"] = pedal.decompress_seconds
    rows["decompress_bf3_engine_s"] = bf3.decompress_seconds

    occupancy_max = 0.0
    for device_kind, direction in (("bf2", Direction.COMPRESS),
                                   ("bf2", Direction.DECOMPRESS),
                                   ("bf3", Direction.DECOMPRESS)):
        serial = sched_pipeline._run_once(
            device_kind, direction, _PPAR_CHUNKS, 1, actual_bytes)
        metrics = obs.MetricsRegistry()
        prev = obs.set_metrics(metrics)
        try:
            piped = sched_pipeline._run_once(
                device_kind, direction, _PPAR_CHUNKS, _PPAR_DEPTH, actual_bytes)
        finally:
            obs.set_metrics(prev)
        occupancy_max = max(occupancy_max, metrics.gauge("sched.occupancy").max)
        point = f"{device_kind}_{direction.value}"
        headlines[f"pipelined_vs_serial_{point}"] = (
            serial.sim_seconds / piped.sim_seconds
        )
        rows[f"ppar_{point}_serial_s"] = serial.sim_seconds
        rows[f"ppar_{point}_depth{_PPAR_DEPTH}_s"] = piped.sim_seconds
    headlines["sched_occupancy_max"] = occupancy_max

    return {
        "config": {
            "actual_bytes": actual_bytes,
            "nominal_bytes": sched_pipeline._NOMINAL,
            "ppar_chunks": _PPAR_CHUNKS,
            "ppar_depth": _PPAR_DEPTH,
            "roundtrip_dataset": _ROUNDTRIP_DATASET,
            "ppar_dataset": sched_pipeline._DATASET,
        },
        "headlines": headlines,
        "rows": rows,
    }


# -- serve (BENCH_PR4) -------------------------------------------------
SERVE_BANDS: Bands = {
    # Batching amortizes the per-job engine overhead: at the unbatched
    # saturation point it must deliver strictly more goodput.
    "serve_batched_vs_unbatched_goodput_at_saturation": (1.0, None),
    # Backpressure: pending requests stay bounded at >2x overload.
    "serve_unbatched_peak_pending_overload": (
        None, float(serve_gateway._MAX_PENDING)),
    "serve_batched_peak_pending_overload": (
        None, float(serve_gateway._MAX_PENDING)),
    # Capability-aware routing keeps compress batches off BF-3's
    # engine-less (SoC fallback) path.
    "serve_capability_vs_round_robin_goodput": (1.0, None),
}


def _serve() -> "dict[str, Any]":
    curves, round_robin = serve_gateway.run_serve_sweep()
    at_top = {label: curve[-1] for label, curve in curves.items()}
    return {
        "config": {
            "actual_bytes": serve_gateway._DEFAULT_ACTUAL,
            "loads_req_s": list(serve_gateway._LOADS_REQ_S),
            "batch_msgs": serve_gateway._BATCH_MSGS,
            "max_pending": serve_gateway._MAX_PENDING,
        },
        "curves": curves,
        "round_robin_at_overload": round_robin,
        "headlines": {
            "serve_batched_vs_unbatched_goodput_at_saturation": (
                at_top["batched"]["goodput_bytes_s"]
                / at_top["unbatched"]["goodput_bytes_s"]
            ),
            "serve_unbatched_peak_pending_overload": float(
                at_top["unbatched"]["peak_pending"]
            ),
            "serve_batched_peak_pending_overload": float(
                at_top["batched"]["peak_pending"]
            ),
            "serve_capability_vs_round_robin_goodput": (
                at_top["batched"]["goodput_bytes_s"]
                / round_robin["goodput_bytes_s"]
            ),
            "serve_unbatched_p99_overload_s": at_top["unbatched"]["p99_s"],
            "serve_batched_p99_overload_s": at_top["batched"]["p99_s"],
        },
    }


# -- select (BENCH_PR5) ------------------------------------------------
# The crossover bands are factor-2 envelopes around the calibrated
# closed-form values (BF2 DEFLATE compress ~6.3 KB, decompress ~190 KB,
# BF3 decompress ~52 KB).
SELECT_TOLERANCE = 0.05

SELECT_BANDS: Bands = {
    # path="auto" latency <= best static path + the model's tolerance.
    "select_auto_vs_best_static_max": (None, 1.0 + SELECT_TOLERANCE),
    # Tables II/III: BF-3 compress must never route to its
    # decompress-only C-Engine.
    "select_bf3_compress_engine_picks": (None, 0.0),
    # Paper shape: SoC wins below the crossover, C-Engine above, and
    # the sweep brackets every capable crossover.
    "select_paper_shape_ok": (1.0, None),
    # Steady-state dispatch hits the memoized crossover cache.
    "select_cache_hit_rate": (0.5, None),
    "select_crossover_bf2_compress_bytes": (4.0e3, 16.0e3),
    "select_crossover_bf2_decompress_bytes": (128.0e3, 512.0e3),
    "select_crossover_bf3_decompress_bytes": (32.0e3, 128.0e3),
}


def _select() -> "dict[str, Any]":
    sweep = select_crossover.run_select_sweep()
    return {
        "config": {
            "actual_bytes": select_crossover._DEFAULT_ACTUAL,
            "sizes": list(select_crossover._SIZES),
            "tolerance": SELECT_TOLERANCE,
        },
        "rows": sweep["rows"],
        "headlines": sweep["headlines"],
    }


# -- obs (BENCH_PR6) ---------------------------------------------------
_OBS_WALL_PAIRS = 31       # interleaved off/on pairs; the gate reads their median
_OBS_SERVE_LOAD = 12_000.0
_OBS_FLAME_BYTES = 64 * 1024

OBS_SIM_BANDS: Bands = {
    # Fleet sketch percentiles stay within the advertised relative
    # error of the exact pooled nearest-rank values (alpha = 0.01).
    "obs_fleet_p50_rel_err": (None, 0.01),
    "obs_fleet_p99_rel_err": (None, 0.01),
    # The seeded overload fires the full deterministic alert stream:
    # pages, tickets, and a goodput-floor breach.
    "obs_slo_alerts": (1.0, None),
    "obs_slo_page_alerts": (1.0, None),
    "obs_slo_goodput_alerts": (1.0, None),
    # The scrape loop ran and >= 2 gateways' registries rolled up.
    "obs_scrapes": (2.0, None),
    "obs_member_registries": (4.0, None),
    # The serve sweep point is bit-for-bit identical with telemetry on.
    "obs_bit_for_bit": (1.0, 1.0),
}

OBS_WALL_BANDS: Bands = {
    # Telemetry-on wall clock <= 5 % over off.
    "obs_overhead_ratio": (None, 1.05),
    # The DEFLATE-compress flamegraph names the match loop on top.
    "obs_top_kernel_is_lz77": (1.0, 1.0),
}


def _serve_point_record(telemetry_on: bool) -> dict:
    return serve_gateway.run_serve_point(
        _OBS_SERVE_LOAD, serve_gateway._BATCH_MSGS,
        telemetry=TelemetryConfig() if telemetry_on else None,
    )


def _wall_serve_pair() -> "tuple[float, float, float]":
    """``(off_s, on_s, overhead)`` from *interleaved* off/on pairs.

    ``overhead`` is ``1 +`` the median over pairs of
    ``(on_i - off_i) / off_i``; ``off_s`` / ``on_s`` are the medians of
    each side, for the record.  The serve point is a few hundred
    milliseconds of small-block codec work, where this host's
    run-to-run jitter is the same order as the telemetry overhead being
    measured.  Three things keep the ratio honest: each on-rep is
    divided by the off-rep run right next to it (slow drift — thermal,
    noisy neighbours — moves both), the order inside a pair alternates
    (whatever the first rep of a pair pays, both sides pay it equally
    often), and the median over pairs discards the pairs a stall landed
    in (a ratio of trimmed totals still carries every stall that
    survives the trim, which read 0.91-1.10 here with nothing changed).
    """
    offs: "list[float]" = []
    ons: "list[float]" = []
    for pair in range(_OBS_WALL_PAIRS):
        timed = {}
        for telemetry_on in ((False, True), (True, False))[pair % 2]:
            timed[telemetry_on] = _timed(
                lambda: _serve_point_record(telemetry_on)
            )
        offs.append(timed[False])
        ons.append(timed[True])
    overhead = 1.0 + statistics.median(
        (on - off) / off for off, on in zip(offs, ons)
    )
    return statistics.median(offs), statistics.median(ons), overhead


def _obs() -> "dict[str, Any]":
    demo = obs_telemetry.run_fleet_demo()

    # Telemetry must not change a single simulated number (NaN
    # percentiles included, hence the JSON text comparison).
    plain = _serve_point_record(False)
    telemetered = _serve_point_record(True)
    sim_headlines = dict(demo["headlines"])
    sim_headlines["obs_bit_for_bit"] = float(
        json.dumps(plain, sort_keys=True)
        == json.dumps(telemetered, sort_keys=True)
    )

    off_s, on_s, overhead = _wall_serve_pair()
    profiler = obs.CodecProfiler()
    payload = bytes(generate_payload(_ROUNDTRIP_DATASET, _OBS_FLAME_BYTES))
    prev = obs.set_profiler(profiler)
    try:
        deflate_compress(payload)
    finally:
        obs.set_profiler(prev)
    top = profiler.top_kernel(("deflate.compress",))

    return {
        "config": {
            "actual_bytes": serve_gateway._DEFAULT_ACTUAL,
            "serve_load_req_s": _OBS_SERVE_LOAD,
            "batch_msgs": serve_gateway._BATCH_MSGS,
            "wall_repetitions": _OBS_WALL_PAIRS,
            "flamegraph_bytes": _OBS_FLAME_BYTES,
            "overhead_ceiling": OBS_WALL_BANDS["obs_overhead_ratio"][1],
        },
        "sim": {
            "headlines": sim_headlines,
            "rows": demo["rows"],
            "alerts": demo["alerts"],
            "serve_point": plain,
        },
        "wall": {
            "headlines": {
                "obs_overhead_ratio": overhead,
                "obs_top_kernel_is_lz77": float(top == "lz77.match_loop"),
            },
            "telemetry_off_s": off_s,
            "telemetry_on_s": on_s,
            "top_kernel": top,
        },
    }


# -- edpc (BENCH_PR7) --------------------------------------------------
# Ratios come from seeded dataset generators through the real codecs,
# makespans from the calibrated cost model.  The pipelined speedup is
# bounded above by 1/max(f, 1-f) of the ac codec time (f = model
# fraction, 0.55 -> bound ~1.82); the floor requires pipelining to
# actually pay at the largest message.
EDPC_BANDS: Bands = {
    # Decoupling must never lose, and must approach the stage bound.
    "edpc_pipelined_vs_unpipelined_large": (1.5, 1.0 / 0.55 + 1e-9),
    # Both dataflows emit bit-identical streams (scheduling-only win).
    "edpc_bytes_identical": (1.0, 1.0),
    # Measured ratio trade vs DEFLATE at the 24 KiB samples: LZ77's
    # exact-repeat matches beat the order-2 context model on these
    # corpora; the bands pin the trade so a codec change shows up.
    "edpc_ac_vs_deflate_ratio_xml": (0.25, 0.5),
    "edpc_ac_vs_deflate_ratio_obs_error": (0.65, 0.95),
}


def _edpc() -> "dict[str, Any]":
    result = edpc_pipeline.run()
    return {
        "config": {
            "ratio_actual_bytes": edpc_pipeline._RATIO_ACTUAL,
            "pipeline_actual_bytes": edpc_pipeline._PIPE_ACTUAL,
            "queue_depth": edpc_pipeline._QUEUE_DEPTH,
        },
        "rows": [dict(row) for row in result.rows],
        "headlines": dict(result.headlines),
    }


# -- wall (BENCH_PR8) --------------------------------------------------
_WALL_REPS = 3            # min-of-N per timing
_WALL_SUITE_BYTES = 1 << 20
_WALL_CODEC_BYTES = 1 << 18
#: DEFLATE suite members whose scalar pipeline is literal/emit-heavy —
#: the structures the vectorized kernels batch; their geomean is the
#: headline aggregate.
_WALL_LIT_SUITE = ("noise", "ascii")
#: Deep-chain / degenerate members: the candidate walk dominates.  Twin
#: and production visit the identical candidate sequence; the vectorized walk
#: does it as ``rfind`` over bucket slices instead of one interpreter
#: iteration per hop, so the silesia members gate on a gain, ``runs2``
#: (few walks, all ``limit``-long matches) on non-inferiority.
_WALL_PARITY_SUITE = ("silesia/xml", "silesia/samba", "runs2")
_WALL_PAIRS = 9           # interleaved slow/fast pairs; each side's min is kept

#: Floors only, deliberately generous (roughly half of what a loaded CI
#: host measures; recorded trajectory values run 1.5-2x above every
#: floor).
WALL_BANDS: Bands = {
    # Aggregate: vectorized kernels vs the full-scalar reference
    # pipeline on the match_loop-dominated literal suite (recorded ~3.5x).
    "wall_vec_speedup_lit_geomean": (1.8, None),
    "wall_vec_speedup_noise": (1.5, None),
    "wall_vec_speedup_ascii": (1.5, None),
    # Deep-chain suite: the bucket-slice walk must beat the
    # scalar reference's per-hop loop — the linked-list walk it replaced
    # recorded 1.03x / 1.17x here, i.e. fails these floors.  runs2 pays
    # the precompute constant for almost no walking: non-inferiority.
    "wall_vec_speedup_silesia_xml": (1.15, None),
    "wall_vec_speedup_silesia_samba": (1.25, None),
    "wall_vec_speedup_runs2": (0.45, None),
    # The headline suite must be measuring what it claims to measure.
    "wall_top_kernel_is_lz77": (1.0, 1.0),
    # The rows of WALL_CASES: one kernel against its twin, timed
    # interleaved in one process (so the ratio, unlike the microseconds
    # beside it, carries over between hosts).  Code-length build: two-
    # queue (count-only package-merge where a limit binds) vs tuple-
    # carrying package-merge on the histograms real small blocks
    # produce; inflate: word-at-a-time vs per-symbol peek/skip over a
    # byte-at-a-time reader.  The small-block floors were raised once
    # ten collections cleared them by >= 1.5x (lowest of ten: build 6.4x
    # at 256 B, 7.2x at 1 KiB; inflate 3.0x at 256 B); inflate at 1 KiB
    # and 64 KiB (lowest 2.7x / 2.35x, ~2.5x at 64 KiB recorded before)
    # keep theirs.
    "wall_build_speedup_256": (4.0, None),
    "wall_build_speedup_1024": (4.0, None),
    "wall_inflate_speedup_256": (1.8, None),
    "wall_inflate_speedup_1024": (1.2, None),
    "wall_inflate_speedup_65536": (1.8, None),
    # Match loop at 256 B: the small-input tokenizer vs the scalar
    # zlib-shaped matcher (ten collections 2.9-3.8x; the bulk kernel
    # alone reads ~2x) and vs that bulk kernel (1.4-1.7x).
    "wall_match_speedup_256": (2.0, None),
    "wall_match_vs_bulk_speedup_256": (1.2, None),
    # Decode kernels vs their step-wise / scalar twins.  AC: the fused
    # loop vs RangeDecoder + the reference model's dense-row lookup
    # (reference.ac.RowContextModel).  The fused loop bisects each
    # context's sparse keys where the twin builds a dense row, so the
    # ratio grew where new contexts dominate: ten collections read
    # 7.2-10.1x on xml, 5.4-8.7x on obs_error (1.98x before) and 5.3-7.0x
    # on four chunks of noise (floor ~0.75x the lowest).  SZ3 residuals:
    # one loop vs a symbol run that stops at each escape, on 32 Ki
    # exaalt floats (ten read 2.10-2.40x).  xxh32: packed lanes vs the
    # scalar stripe loop (recorded ~4.2x at 64 KiB, ~1.85x at 128 B); at
    # 12 B both take the scalar loop and the floor only bounds the
    # dispatch overhead (<= 1.15x slower).
    "wall_ac_decode_speedup_silesia_xml": (2.5, None),
    "wall_ac_decode_speedup_obs_error": (1.8, None),
    "wall_ac_decode_speedup_noise": (4.0, None),
    "wall_sz3_residual_speedup_exaalt": (1.7, None),
    "wall_xxh32_speedup_65536": (2.5, None),
    "wall_xxh32_speedup_128": (1.3, None),
    "wall_xxh32_speedup_12": (1 / 1.15, None),
    # LZ4 block codec vs its per-byte twins (reference.lz4) on xml
    # windows: word-XOR probe and extension with one typed table; a
    # per-sequence decoder.  Ten collections read compress 1.37-1.74x at
    # 1 KiB and 1.64-2.52x at 64 KiB, decompress 1.35-1.53x and
    # 1.48-2.02x; each floor is about 0.8x the lowest.
    "wall_lz4_compress_speedup_1024": (1.1, None),
    "wall_lz4_compress_speedup_65536": (1.3, None),
    "wall_lz4_decompress_speedup_1024": (1.1, None),
    "wall_lz4_decompress_speedup_65536": (1.2, None),
    # Per-codec compress throughput, MB/s (production kernels, 256 KiB
    # silesia/xml sample; sz3 on a float32 field): roughly 1/6 of a
    # development-host measurement so loaded CI machines clear them.
    "wall_mbps_deflate": (0.12, None),
    "wall_mbps_zlib": (0.12, None),
    "wall_mbps_gzip": (0.12, None),
    "wall_mbps_lz4b": (0.5, None),
    "wall_mbps_lz4f": (0.4, None),
    "wall_mbps_zstdlite": (0.2, None),
    "wall_mbps_ac": (0.2, None),
    "wall_mbps_sz3": (1.5, None),
}


def _wall_payload(name: str, nbytes: int) -> bytes:
    """Deterministic wall-bench payloads (independent of the sim datasets
    where noted, so the suite composition is explicit in this file)."""
    if name == "noise":
        return np.random.default_rng(0x9E3779B9).bytes(nbytes)
    if name == "ascii":
        rng = np.random.default_rng(0x85EBCA6B)
        return bytes(rng.integers(32, 127, nbytes, dtype=np.uint8))
    if name == "runs2":
        pattern = (
            b"\x00" * 1024          # beyond-max-match zero run
            + b"\x7f\x80" * 300     # period-2 alternation
            + b"PQRS" * 200         # period-4
            + bytes(range(64)) * 3  # short ramp tail
        )
        reps = nbytes // len(pattern) + 1
        return (pattern * reps)[:nbytes]
    return bytes(get_dataset(name).generate(nbytes))


def _wall_deflate_seconds(data: bytes, scope) -> float:
    with scope():
        deflate_compress(data[:4096])  # warm numpy/codepaths
        return _best_seconds(lambda: deflate_compress(data))


def _wall_codec_mbps() -> "dict[str, float]":
    """Compress throughput (MB/s) per codec."""
    payload = _wall_payload("silesia/xml", _WALL_CODEC_BYTES)
    t = np.linspace(0.0, 40.0, _WALL_CODEC_BYTES // 8)
    field = (np.sin(t) + 0.25 * np.sin(6.3 * t)).astype(np.float32)
    codecs: "dict[str, tuple[Any, Any]]" = {
        "deflate": (deflate_compress, payload),
        "zlib": (zlib_compress, payload),
        "gzip": (gzip_compress, payload),
        "lz4b": (lz4.lz4_block_compress, payload),
        "lz4f": (lz4.lz4_compress, payload),
        "zstdlite": (zstdlite_compress, payload),
        "ac": (ac_compress, payload),
        "sz3": (lambda d: sz3_compress(d, SZ3Config(error_bound=1e-3)), field),
    }
    out = {}
    for name, (fn, data) in codecs.items():
        nbytes = data.nbytes if isinstance(data, np.ndarray) else len(data)
        fn(data)  # warm
        out[name] = nbytes / _best_seconds(lambda: fn(data)) / 1e6
    return out


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _best_seconds(fn) -> float:
    return min(_timed(fn) for _ in range(_WALL_REPS))


def _interleaved_best(slow, fast) -> "tuple[float, float]":
    """Min-of-N seconds of two callables, run alternately so a slow
    minute lands on both."""
    pairs = [(_timed(slow), _timed(fast)) for _ in range(_WALL_PAIRS)]
    return min(s for s, _ in pairs), min(f for _, f in pairs)


# -- wall: twin rows ----------------------------------------------------


@dataclass(frozen=True)
class WallCase:
    """One twin-row headline: REGISTRY row ``row``'s production kernel
    timed against its twin, or against the production kernel of row
    ``against``, one call per argument tuple that ``args`` builds."""

    row: str
    args: "Callable[[], list[tuple]]"
    against: "str | None" = None


def _wall_key(dataset: str) -> str:
    return dataset.replace("/", "_").replace("-", "_")


def _xml_calls(size: int, count: int, make=lambda window: (window,)) -> "list[tuple]":
    """One argument tuple, ``make(window)``, per window: ``count`` evenly
    spaced ``size``-byte windows of 256 KiB of xml."""
    corpus = _wall_payload("silesia/xml", _WALL_CODEC_BYTES)
    stride = (len(corpus) - size) // count
    return [make(corpus[i * stride:i * stride + size]) for i in range(count)]


def _block_trees(window: bytes) -> "list[tuple]":
    """The three code-length builds a dynamic DEFLATE block of
    ``window`` needs: literal/length, distance and code-length."""
    syms = deflate_stages._map_symbols(*tokenize(window, None).arrays())
    litlen = np.bincount(syms["litlen_sym"], minlength=286)
    litlen[256] += 1
    dist = np.bincount(syms["dist_sym"], minlength=30)
    trees = [huffman.code_lengths(litlen, 15), huffman.code_lengths(dist, 15)]
    cl_syms, _ = deflate_stages._rle_code_lengths(np.concatenate(trees).tolist())
    return [(litlen, 15), (dist, 15), (np.bincount(cl_syms, minlength=19), 7)]


def _ac_blob(dataset: str, nbytes: int) -> "list[tuple]":
    """One default-config AC stream of ``nbytes`` of ``dataset``: the
    ``codec_decompress`` operating point is one full chunk plus half of
    one; four chunks of noise reach contexts that saw one to three
    symbols."""
    return [(ac_compress(_wall_payload(dataset, _WALL_CODEC_BYTES)[:nbytes]),)]


def _sz3_payload() -> "list[tuple]":
    """The SZ3 entropy payload of 32 Ki ``exaalt-dataset1`` floats at the
    1e-4 bound, the ``codec_decompress`` field size (~17 % escapes)."""
    floats = get_dataset("exaalt-dataset1").generate(4 * 32768)
    return [(SZ3Compressor(SZ3Config(error_bound=1e-4)).entropy_stage(floats)[1],)]


def _xxh32_inputs(nbytes: int) -> "list[tuple]":
    """An LZ4 block's content (64 KiB), a small frame's (128 B) or a
    frame descriptor (12 B, no stripe: only call overhead can differ),
    repeated so that one timing takes milliseconds."""
    data = _wall_payload("silesia/xml", _WALL_CODEC_BYTES)[:nbytes]
    return [(data,)] * max(1, 65536 // (nbytes + 64))


WALL_CASES: "dict[str, WallCase]" = {
    **{f"wall_build_speedup_{size}": WallCase("code_lengths", lambda size=size: [
        build for (window,) in _xml_calls(size, 16) for build in _block_trees(window)])
       for size in (256, 1024)},
    **{f"wall_inflate_speedup_{size}": WallCase(
        "inflate", partial(_xml_calls, size, count, lambda w: (deflate_compress(w),)))
       for size, count in ((256, 16), (1024, 16), (65536, 2))},
    "wall_match_speedup_256": WallCase(
        "tokenize_small", partial(_xml_calls, 256, 16, lambda w: (w, None))),
    "wall_match_vs_bulk_speedup_256": WallCase(
        "tokenize_small", partial(_xml_calls, 256, 16, lambda w: (w, None)),
        against="tokenize"),
    **{f"wall_ac_decode_speedup_{_wall_key(dataset)}": WallCase(
        "ac_decode", partial(_ac_blob, dataset, nbytes))
       for dataset, nbytes in (("silesia/xml", 6144), ("obs_error", 6144),
                               ("noise", 16384))},
    "wall_sz3_residual_speedup_exaalt": WallCase("decode_residuals", _sz3_payload),
    **{f"wall_xxh32_speedup_{nbytes}": WallCase("xxh32", partial(_xxh32_inputs, nbytes))
       for nbytes in (65536, 128, 12)},
    **{f"wall_lz4_compress_speedup_{size}": WallCase(
        "lz4_block_compress", partial(_xml_calls, size, count))
       for size, count in ((1024, 16), (65536, 3))},
    **{f"wall_lz4_decompress_speedup_{size}": WallCase(
        "lz4_block_decompress",
        partial(_xml_calls, size, count, lambda w: (lz4.lz4_block_compress(w),)))
       for size, count in ((1024, 16), (65536, 3))},
}


def _same(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, TokenStream):
        return (a.lengths, a.values, a.n_input) == (b.lengths, b.values, b.n_input)
    return a == b


def _wall_twin_rows() -> "list[dict[str, Any]]":
    """Every :data:`WALL_CASES` row: both sides' outputs asserted equal
    on every argument tuple, then the two timed interleaved."""
    from repro.algorithms.reference import REGISTRY

    rows = []
    for headline, case in WALL_CASES.items():
        fast = REGISTRY[case.row].production
        slow = REGISTRY[case.against].production if case.against \
            else REGISTRY[case.row].twin
        args = case.args()
        for call in args:
            if not _same(fast(*call), slow(*call)):
                raise AssertionError(f"{headline}: {case.row} diverges")
        slow_s, fast_s = _interleaved_best(
            lambda: [slow(*call) for call in args],
            lambda: [fast(*call) for call in args])
        rows.append({
            "headline": headline, "row": case.row, "against": case.against,
            "calls": len(args),
            "slow_us": slow_s / len(args) * 1e6,
            "fast_us": fast_s / len(args) * 1e6,
            "speedup": slow_s / fast_s,
        })
    return rows


def _wall() -> "dict[str, Any]":
    """Three row families, all host wall clock:

    * the DEFLATE compress suite at 1 MiB, the production kernels vs
      the same pipeline inside ``reference.twins()`` (byte-identical
      outputs, asserted per row).
      The *literal-dominated* members (``noise``, ``ascii``) are where
      vectorization restructures the work — their geomean is the
      headline aggregate; the deep-chain ``silesia/*`` members gate
      on the bucket-slice walk's gain over the scalar per-hop loop,
      ``runs2`` on a non-inferiority floor.
    * one kernel against its twin per :data:`WALL_CASES` row
      (:func:`_wall_twin_rows`).
    * per-codec compress throughput, as ``wall_mbps_*``.
    """
    from contextlib import nullcontext

    from repro.algorithms.reference import twins

    rows = []
    speedups: "dict[str, float]" = {}
    for name in _WALL_LIT_SUITE + _WALL_PARITY_SUITE:
        data = _wall_payload(name, _WALL_SUITE_BYTES)
        with twins():
            blob_scalar = deflate_compress(data)
        if blob_scalar != deflate_compress(data):  # pragma: no cover
            raise AssertionError(f"kernel divergence on wall dataset {name!r}")
        scalar_s = _wall_deflate_seconds(data, twins)
        vec_s = _wall_deflate_seconds(data, nullcontext)
        speedups[name] = scalar_s / vec_s
        rows.append({
            "dataset": name,
            "input_bytes": len(data),
            "scalar_s": scalar_s,
            "vectorized_s": vec_s,
            "speedup": scalar_s / vec_s,
            "vectorized_mb_s": len(data) / vec_s / 1e6,
        })

    # The headline suite must actually be match_loop-dominated: profile
    # the twin pipeline on the first literal-suite member.
    profiler = obs.CodecProfiler()
    prev = obs.set_profiler(profiler)
    try:
        with twins():
            deflate_compress(_wall_payload(_WALL_LIT_SUITE[0], _WALL_SUITE_BYTES))
    finally:
        obs.set_profiler(prev)
    top = profiler.top_kernel(("deflate.compress",))

    headlines: "dict[str, float]" = {
        "wall_vec_speedup_lit_geomean": statistics.geometric_mean(
            speedups[name] for name in _WALL_LIT_SUITE),
        "wall_top_kernel_is_lz77": 1.0 if top == "lz77.match_loop" else 0.0,
    }
    for name, value in speedups.items():
        headlines[f"wall_vec_speedup_{_wall_key(name)}"] = value
    for codec, mbps in _wall_codec_mbps().items():
        headlines[f"wall_mbps_{codec}"] = mbps
    twin_rows = _wall_twin_rows()
    for row in twin_rows:
        headlines[row["headline"]] = row["speedup"]

    return {
        "config": {
            "suite_bytes": _WALL_SUITE_BYTES,
            "codec_bytes": _WALL_CODEC_BYTES,
            "wall_repetitions": _WALL_REPS,
            "lit_suite": list(_WALL_LIT_SUITE),
            "parity_suite": list(_WALL_PARITY_SUITE),
        },
        "wall": {
            "headlines": headlines,
            "rows": rows,
            "twin_rows": twin_rows,
            "top_kernel": top,
        },
    }


# -- cluster (BENCH_PR9) -----------------------------------------------
# The exact-trajectory check (routing digests included) is the tight
# screw; these bands pin the *shape*: goodput saturates under the
# global+shard admission split instead of collapsing, the shard budget
# actually binds, and in-shard failover recovers the kill.
CLUSTER_BANDS: Bands = {
    # Saturation, not collapse: the 100x point holds >= 90 % of the
    # curve's peak goodput (recorded: it *is* the peak) ...
    "cluster_goodput_at_100x_vs_peak": (0.9, None),
    # ... and no step down the curve loses more than 10 % (monotone up
    # to the saturation plateau; recorded minimum successive ratio
    # ~0.985 at the 1.2M point).
    "cluster_goodput_successive_ratio_min": (0.9, None),
    # Per-shard pending never exceeds the shard admission budget, even
    # at 100x overload (recorded: exactly at budget, never over).
    "cluster_max_shard_pending_overload": (
        None, float(cluster_fleet._SHARD_MAX_PENDING)
    ),
    # Every request admitted anywhere is completed or failed: both
    # admission layers drain to zero after every run (a slot leak
    # would show up here).
    "cluster_pending_after_drain": (0.0, 0.0),
    # The mid-run whole-worker kill recovers >= 90 % of the pre-kill
    # completion rate via in-shard failover (recorded ~0.95).
    "cluster_failover_recovery_ratio": (0.9, None),
    # The kill actually exercised the failover path at least once ...
    "cluster_failovers": (1.0, None),
    # ... and the latency spike tripped the burn-rate alert stream.
    "cluster_slo_alerts_failover": (1.0, None),
}


def _cluster() -> "dict[str, Any]":
    curve = [cluster_fleet.run_cluster_point(load)
             for load in cluster_fleet.CLUSTER_LOADS_REQ_S]
    failover = cluster_fleet.run_failover_point()

    goodputs = [r["goodput_bytes_s"] for r in curve]
    peak = max(goodputs)
    return {
        "config": {
            "fleet": [list(pair) for pair in cluster_fleet._FLEET],
            "num_shards": cluster_fleet._NUM_SHARDS,
            "global_max_pending": cluster_fleet._GLOBAL_MAX_PENDING,
            "shard_max_pending": cluster_fleet._SHARD_MAX_PENDING,
            "batch_msgs": cluster_fleet._BATCH_MSGS,
            "seed": cluster_fleet._SEED,
            "loads_req_s": list(cluster_fleet.CLUSTER_LOADS_REQ_S),
            "failover_load_req_s": cluster_fleet.FAILOVER_LOAD_REQ_S,
        },
        "curve": curve,
        "failover": failover,
        "headlines": {
            "cluster_goodput_at_100x_vs_peak": (
                goodputs[-1] / peak if peak > 0.0 else 0.0
            ),
            "cluster_goodput_successive_ratio_min": min(
                later / earlier for earlier, later in zip(goodputs, goodputs[1:])
            ),
            "cluster_max_shard_pending_overload": float(
                max(r["max_shard_pending"] for r in curve)
            ),
            "cluster_pending_after_drain": float(
                max(r["pending_after_drain"] for r in curve + [failover])
            ),
            "cluster_failover_recovery_ratio": failover["recovery_ratio"],
            "cluster_failovers": float(failover["failovers"]),
            "cluster_slo_alerts_failover": float(failover["slo_alerts"]),
            "cluster_goodput_peak_bytes_s": peak,
            "cluster_failover_epoch": float(failover["epoch"]),
        },
    }


# -- stream (BENCH_PR10) -----------------------------------------------
# pt2pt/bcast on the hypersparse telemetry payload, SoC DEFLATE design,
# whole-message vs streamed through the RST1 container.  Recorded
# speedups sit ~4.26x; the floors encode the ordering claims, not the
# exact operating point.
STREAM_BANDS: Bands = {
    # At >= 4 MiB streaming must be no worse than whole-message
    # rendezvous, and strictly better at 16 MiB where the overlap win
    # dwarfs container overhead.
    "stream_vs_whole_latency_4mib": (1.0, None),
    "stream_vs_whole_latency_16mib": (1.05, None),
    # Binomial bcast re-streams every hop, so the win must survive
    # composition (strictly better on the collective sweep).
    "bcast_speedup_4mib": (1.01, None),
    # Streamed payloads decode byte-identical to their whole-message
    # twins everywhere in the sweep — exact, both sides.
    "stream_byte_identical": (1.0, 1.0),
}


def _stream() -> "dict[str, Any]":
    result = stream_fabric.run()
    return {
        "config": {
            "actual_bytes": stream_fabric.DEFAULT_ACTUAL_BYTES,
            "chunk_bytes": stream_fabric._CHUNK_BYTES,
            "gate_design": stream_fabric._GATE_DESIGN,
            "sim_mb": list(stream_fabric._SIM_MB),
        },
        "rows": result.rows,
        "headlines": dict(result.headlines),
    }


REPORTS: "dict[str, Report]" = {
    "core": Report("BENCH_PR3.json", _core, {"": Section(BANDS)}),
    "serve": Report("BENCH_PR4.json", _serve, {"": Section(SERVE_BANDS)}),
    "select": Report("BENCH_PR5.json", _select, {"": Section(SELECT_BANDS)}),
    "obs": Report("BENCH_PR6.json", _obs, {
        "sim": Section(OBS_SIM_BANDS),
        "wall": Section(OBS_WALL_BANDS, exact=False),
    }),
    "edpc": Report("BENCH_PR7.json", _edpc, {"": Section(EDPC_BANDS)}),
    "wall": Report("BENCH_PR8.json", _wall,
                   {"wall": Section(WALL_BANDS, exact=False)}),
    "cluster": Report("BENCH_PR9.json", _cluster, {"": Section(CLUSTER_BANDS)}),
    "stream": Report("BENCH_PR10.json", _stream, {"": Section(STREAM_BANDS)}),
}


def collect(name: str) -> "dict[str, Any]":
    """Re-run report ``name``'s experiment; returns the report dict."""
    return {"schema": SCHEMA, "generator": "repro.bench.regress",
            **REPORTS[name].run()}


def gate(name: str, report: "dict[str, Any]") -> "list[str]":
    """Check every band of every section of report ``name``; returns
    the violations (empty when it passes)."""
    violations = []
    for key, section in REPORTS[name].sections.items():
        headlines = (report.get(key, {}) if key else report).get("headlines", {})
        for band, (floor, ceiling) in section.bands.items():
            if band not in headlines:
                violations.append(f"{band}: missing from report")
                continue
            value = headlines[band]
            if floor is not None and value < floor:
                violations.append(f"{band}: {value:.6g} below floor {floor:.6g}")
            if ceiling is not None and value > ceiling:
                violations.append(f"{band}: {value:.6g} above ceiling {ceiling:.6g}")
    return violations


def write_report(report: "dict[str, Any]", path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> "dict[str, Any]":
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
