"""Wall-clock gates over the kernel-vectorization report (BENCH_PR8.json).

Unlike the sim trajectories, every number here is a host-local
wall-clock reading, so nothing is compared exactly: the committed file
must sit inside the generous ``WALL_BANDS`` (per-codec MB/s floors
included), and fresh measurements re-check the headline claims — the vectorized
DEFLATE pipeline beats the same pipeline on its reference twins
(``repro.algorithms.reference.twins``) on the literal-dominated
(``lz77.match_loop``-bound) payload, the entropy stage beats its
retained reference twins, AC decode, SZ3 residual decode and xxh32
beat their step-wise / scalar twins, and the LZ4 block codec beats its per-byte twins in
both directions — on whatever machine runs the tests.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from unittest import mock

from repro.algorithms.reference import twins
from repro.bench import regress
from tests.bench.reports import committed

import pytest


@pytest.fixture(scope="module")
def committed_report():
    return committed("wall")


def test_committed_report_passes_bands(committed_report):
    assert regress.gate("wall", committed_report) == []


def test_committed_report_schema(committed_report):
    assert set(regress.WALL_BANDS) <= set(committed_report["wall"]["headlines"])


def test_committed_rows_are_byte_identical_across_kernels(committed_report):
    """The recorded rows must all have certified kernel equivalence."""
    rows = committed_report["wall"]["rows"]
    assert len(rows) >= 5
    for row in rows:
        assert row["scalar_s"] > 0 and row["vectorized_s"] > 0
        assert row["speedup"] == pytest.approx(
            row["scalar_s"] / row["vectorized_s"], rel=1e-9
        )


def test_committed_entropy_rows_back_their_headlines(committed_report):
    """The entropy-stage ratios are recorded next to the microseconds
    they were computed from, one row per block size."""
    wall = committed_report["wall"]
    rows = {row["block_bytes"]: row for row in wall["entropy_rows"]}
    assert sorted(rows) == [256, 1024, 65536]
    for size, row in rows.items():
        assert row["build_speedup"] == pytest.approx(
            row["build_reference_us"] / row["build_us"], rel=1e-9)
        assert row["inflate_speedup"] == pytest.approx(
            row["inflate_reference_us"] / row["inflate_us"], rel=1e-9)
        assert wall["headlines"][f"wall_inflate_speedup_{size}"] \
            == row["inflate_speedup"]
        assert row["compress_us"] > 0
    # The match loop is timed only where the small tokenizer runs.
    assert [size for size, row in rows.items() if "match_speedup" in row] \
        == [256, 1024]
    assert wall["headlines"]["wall_match_speedup_256"] \
        == rows[256]["match_speedup"] == pytest.approx(
            rows[256]["match_reference_us"] / rows[256]["match_us"], rel=1e-9)
    # Against the bulk kernel the ratio comes from its own interleaved
    # pair, not from the two columns above.
    assert wall["headlines"]["wall_match_vs_bulk_speedup_256"] \
        == rows[256]["match_vs_bulk_speedup"]
    assert rows[256]["match_bulk_us"] > 0


def test_committed_decode_rows_back_their_headlines(committed_report):
    """AC decode, SZ3 residual decode and xxh32 ratios sit next to the
    microseconds they were computed from: three AC windows, one SZ3
    entropy payload, three xxh32 lengths."""
    wall = committed_report["wall"]
    rows = wall["decode_rows"]
    assert [(r["kernel"], r["dataset"]) for r in rows] == [
        ("ac_decode", "silesia/xml"), ("ac_decode", "obs_error"),
        ("ac_decode", "noise"), ("decode_residuals", "exaalt-dataset1"),
        ("xxh32", "silesia/xml"), ("xxh32", "silesia/xml"), ("xxh32", "silesia/xml")]
    assert [r["input_bytes"] for r in rows if r["kernel"] != "decode_residuals"] == [
        6144, 6144, 16384, 65536, 128, 12]
    for row in rows:
        assert row["speedup"] == pytest.approx(
            row["reference_us"] / row["us"], rel=1e-9)
        assert wall["headlines"][row["headline"]] == row["speedup"]


def test_committed_lz4_rows_back_their_headlines(committed_report):
    """LZ4 block compress and decompress against their twins, at 1 KiB
    and 64 KiB, next to the microseconds they were computed from."""
    wall = committed_report["wall"]
    rows = wall["lz4_rows"]
    assert [(r["kernel"], r["input_bytes"]) for r in rows] == [
        ("lz4_block_compress", 1024), ("lz4_block_decompress", 1024),
        ("lz4_block_compress", 65536), ("lz4_block_decompress", 65536)]
    for row in rows:
        assert row["speedup"] == pytest.approx(
            row["reference_us"] / row["us"], rel=1e-9)
        assert wall["headlines"][row["headline"]] == row["speedup"]


def test_top_kernel_is_lz77(committed_report):
    assert committed_report["wall"]["top_kernel"].startswith("lz77.")


def _violations_with(committed_report, key, value):
    broken = {"wall": dict(committed_report["wall"])}
    broken["wall"]["headlines"] = {**committed_report["wall"]["headlines"],
                                   key: value}
    return regress.gate("wall", broken)


def test_gate_reports_band_violation(committed_report):
    violations = _violations_with(committed_report, "wall_vec_speedup_noise", 0.01)
    assert any("wall_vec_speedup_noise" in v for v in violations)


def test_gate_reports_codec_floor_violation(committed_report):
    violations = _violations_with(committed_report, "wall_mbps_deflate", 1e-6)
    assert violations == [
        "wall_mbps_deflate: 1e-06 below floor 0.12"
    ]


def test_fresh_vectorized_beats_scalar_on_literal_payload():
    """One live measurement on this host: vec >= 1.2x scalar at 1 MiB.

    The measured margin is ~4-5x on the noise payload (where the scalar
    profile is lz77.match_loop-dominated); 1.2x is the generous floor
    that still catches a vectorized path silently falling back to the
    scalar reference.  Single rep per side with a small warm call —
    this is a sanity check, not a benchmark.
    """
    from repro.algorithms.deflate import deflate_compress

    data = regress._wall_payload("noise", 1 << 20)
    warm = data[:4096]
    times = {}
    blobs = {}
    for side, scope in (("twin", twins), ("production", nullcontext)):
        with scope():
            deflate_compress(warm)
            start = time.perf_counter()
            blobs[side] = deflate_compress(data)
            times[side] = time.perf_counter() - start
    assert blobs["twin"] == blobs["production"]  # byte-identical first
    speedup = times["twin"] / times["production"]
    assert speedup > 1.2, (
        f"vectorized DEFLATE only {speedup:.2f}x scalar on noise payload"
    )


def test_fresh_entropy_stage_beats_reference():
    """Live ratios against the retained twins, interleaved in-process.

    ``_wall_entropy_rows`` first asserts the fast kernels reproduce the
    reference arrays, tokens and bytes, then times both.  Recorded:
    code-length build ~7x at every block size, inflate ~3x on small
    blocks and ~2.5x at 64 KiB, the small-input match loop 3.4x at 256 B
    and 2.0x at 1 KiB (1.5x and 1.4x the bulk kernel it replaces there).
    The floors here sit well under the recorded values: they catch a
    kernel that silently fell back to the reference's method, not host
    jitter.
    """
    for row in regress._wall_entropy_rows():
        size = row["block_bytes"]
        assert row["build_speedup"] > 1.5, (
            f"code-length build only {row['build_speedup']:.2f}x the "
            f"reference on {size} B blocks"
        )
        assert row["inflate_speedup"] > (1.4 if size >= 65536 else 1.2), (
            f"inflate only {row['inflate_speedup']:.2f}x the reference "
            f"on {size} B blocks"
        )
        assert row.get("match_speedup", 2.0) > 1.2, (
            f"match loop only {row['match_speedup']:.2f}x the reference "
            f"on {size} B blocks"
        )
        assert row.get("match_vs_bulk_speedup", 2.0) > 1.0, (
            f"small tokenizer only {row['match_vs_bulk_speedup']:.2f}x the "
            f"bulk kernel on {size} B blocks"
        )


def test_fresh_decode_kernels_beat_their_twins():
    """Live ratios for the fused AC decode loop, the one-loop SZ3
    residual decoder and the packed-lane xxh32, interleaved in-process
    after asserting equal outputs.

    Recorded: AC 5-10x over the step-wise twin (xml, obs_error, noise),
    SZ3 residuals ~2.2x over the escape-stopping symbol run, xxh32 ~4x
    at 64 KiB and ~1.85x at 128 B over the scalar loop.  The floors
    are the committed report's own ``WALL_BANDS``; the 12-byte row (no
    stripe on either side) only bounds what the length dispatch may cost.
    """
    rows = regress._wall_decode_rows()
    assert len(rows) == 7
    for row in rows:
        floor, _ = regress.WALL_BANDS[row["headline"]]
        assert row["speedup"] > floor, (
            f"{row['headline']}: only {row['speedup']:.2f}x its twin"
        )


def test_fresh_lz4_block_codec_beats_its_twins():
    """Live ratios for the LZ4 block codec, both directions, interleaved
    in-process after asserting equal blocks and outputs.  Recorded
    1.35-2.5x; the floor catches a codec that fell back to per-byte
    work, not host jitter."""
    rows = regress._wall_lz4_rows()
    assert len(rows) == 4
    for row in rows:
        assert row["speedup"] > 1.0, (
            f"{row['headline']}: only {row['speedup']:.2f}x its twin"
        )


def test_each_block_size_takes_its_faster_encode_path():
    """Live check of ``_SMALL_BLOCK_TOKENS``: force every block through
    the token lists, then through the numpy arrays, interleaved.

    Tokens are computed once and served from a dict, so only block
    encoding is timed.  Recorded: the lists take ~0.66x the arrays'
    time on 32 xml windows of 256 B (~140 tokens), the arrays ~0.3x the
    lists' on two of 64 KiB (~4 500 tokens).  The floors (1.2x, 1.5x)
    catch a threshold on the wrong side of either size, not host jitter.
    """
    from repro.algorithms.deflate import compress as dc
    from repro.datasets import get_dataset

    corpus = bytes(get_dataset("silesia/xml").generate(256 * 1024))
    for size, count, winner, floor in ((256, 32, "lists", 1.2),
                                       (65536, 2, "arrays", 1.5)):
        stride = (len(corpus) - size) // count
        blocks = [corpus[i * stride:i * stride + size] for i in range(count)]
        tokens = {block: dc.tokenize(block, None) for block in blocks}
        threshold = {"lists": 1 << 30, "arrays": 0}

        def encode(path):
            with mock.patch.object(dc, "_SMALL_BLOCK_TOKENS", threshold[path]):
                return [dc.deflate_compress(block) for block in blocks]

        with mock.patch.object(dc, "tokenize", lambda data, _cfg: tokens[data]):
            assert encode("lists") == encode("arrays")
            times = {"lists": [], "arrays": []}
            for _ in range(9):
                for path in times:
                    start = time.perf_counter()
                    encode(path)
                    times[path].append(time.perf_counter() - start)
        loser = "arrays" if winner == "lists" else "lists"
        speedup = min(times[loser]) / min(times[winner])
        assert speedup > floor, (
            f"{size} B blocks: the {winner} path is only {speedup:.2f}x the {loser}"
        )
