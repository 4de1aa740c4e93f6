"""Encoder output pinned by digest at the sizes ``benchmarks/perf`` runs
and on the matcher corners.

The golden vectors next to this file are <= 6 KB, so a matcher change
that only alters tokens once chains get deep, the window binds or a
block spans several Huffman blocks passes them.  The five
benchmark-scale pins are the ``codec_compress`` / ``stream_paths``
operating points: DEFLATE of a 64 KiB xml and a 32 KiB mozilla window,
one 8 KiB ``net_telemetry`` chunk, zlib of 48 KiB of ``obs_error``
floats, SZ3 of 40 Ki ``exaalt-dataset1`` floats at the paper's 1e-4
bound.  The corner pins run DEFLATE with a shrinking ``good_match``
at ``max_chain`` just below, just above and at twice the input length.
One pin freezes the chunk-parallel container ``pedal_ops`` round
trips: the 64 KiB xml window as RST1 with one DEFLATE frame per chunk
of eight, decoded back here by both RST1 readers.  The small-block
pins cover what ``serve_sweep`` encodes: its first 256 B xml request,
1 KiB of xml and 2 KiB of ``net_telemetry``, xml prefixes of 511 and
513 tokens, the 256 B request under each forced block type, and
``block_tokens`` 7 and 100 on the 256 B and 2 KiB inputs (they were
first computed at the commit before small blocks got their own encode
path).  Three more reach matcher paths those default-config pins do
not: zstd-lite's greedy ``max_chain`` 8 walk on the 256 B request and
on 1 KiB of xml, and a 64-byte window, which cuts most chains, on the
same 1 KiB (first computed
at the commit before small inputs got their own tokenizer).  The AC pins cover the context model: the two 12 KiB
``codec_compress`` windows, orders 0-4 on a 40 KiB input that halves
its hot context, ``table_bits`` 8 and 20, ``chunk_bytes`` 256 and
2^17, and ``max_total`` 2^10 and 2^16 (encoder bytes only), the first
on an input whose middle chunk skips a context still over budget (they
were first computed at the commit before the model kept only the
counts it has seen).  The LZ4 pins freeze the frame at block-size codes
4 and 7 on 128 KiB of xml and 96 KiB of mozilla and ``obs_error``, an
80 KiB incompressible window (stored blocks only), the empty input and
96 KiB of ``obs_error`` at acceleration 4 (probe misses there run long
enough for the stride to grow, so it differs from acceleration 1);
bare blocks pin 128 B, 256 B and 1 KiB of xml and 2 047-2 049 bytes,
sizes at which a frame may store the block instead.  Each decodes back.
The SZ3R pins run 8 Ki ``exaalt-dataset1`` floats at the 1e-4 bound,
where about one residual in six is an escape, through every lossless
backend and once through the ``interp`` predictor; their entries also
pin the digest of the decoded array.  The AC noise pin codes 16 KiB of
incompressible bytes, whose later chunks see contexts of one to three
distinct symbols (both first computed at the commit before the SZ3
residual loop and the AC rows were rewritten).

The inputs and encoders are defined once, in ``regenerate.py``; the
digests live in ``manifest.json`` under ``digest_pins`` (the five
benchmark-scale ones were first computed at the commit *before* the
bucket-slice LZ77 walk landed).  For a speed-up, "no encoder emits a
different byte" fails here.  Input digests are pinned too, so a
dataset-generator change reads as that and not as an encoder change.

Two DEFLATE pins sit where a Huffman length limit binds, so they reach
the length-limited build that no other pin does: a literal/length tree
that would be 17 deep under no limit, and a code-length tree that would
be 8 deep.  Each decodes back through ``deflate_decompress`` and zlib.
"""

from __future__ import annotations

import json
import zlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.ac import ACConfig, ac_decompress
from repro.algorithms.lz4 import lz4_block_decompress, lz4_decompress
from repro.algorithms.sz3 import encoder, lossless
from repro.algorithms.sz3.config import BACKENDS
from repro.algorithms import huffman
from repro.algorithms.deflate import deflate_decompress
from repro.algorithms.deflate.compress import _SMALL_BLOCK_TOKENS, _rle_code_lengths
from repro.algorithms.lz77 import tokenize
from repro.algorithms.reference.ac import RowContextModel
from repro.core.parallel import ParallelCompressor
from repro.dpu import make_device
from repro.sim import Environment
from repro.stream import stream_decompress
from tests.vectors.regenerate import AC_SKIP_CHUNK, DIGEST_PINS, PIN_DECODERS, pin_entry

PINS = json.loads((Path(__file__).resolve().parent / "manifest.json").read_text())[
    "digest_pins"]


@pytest.mark.parametrize("name", sorted(PINS))
def test_encoder_output_digest_is_pinned(name):
    got = pin_entry(name)
    assert got["input_sha256"] == PINS[name]["input_sha256"], "input corpus changed"
    assert got == PINS[name]


def test_parallel_container_pin_decodes_back():
    make_input, encode = DIGEST_PINS["parallel-deflate-xml-64k-8chunks"]
    data = make_input()
    blob = encode(data)
    assert stream_decompress(blob) == data
    env = Environment()
    parallel = ParallelCompressor(make_device(env, "bf2"))
    result = env.run(until=env.process(parallel.decompress(blob)))
    assert result.payload == data


def test_token_count_pins_straddle_the_small_block_threshold():
    """The 511/513-token pins sit either side of the token count at which
    a block leaves the token-list encode path for the numpy one."""
    for name, side in (("deflate-xml-511-tokens", -1), ("deflate-xml-513-tokens", 1)):
        make_input, _ = DIGEST_PINS[name]
        assert len(tokenize(make_input())) == _SMALL_BLOCK_TOKENS + side


def _unlimited_depths(data: bytes) -> "tuple[int, int]":
    """Deepest literal/length and code-length codes of a one-block,
    all-literal encode of ``data`` with no length limit (31 bits)."""
    counts = Counter(data)
    litlen = [counts[b] for b in range(256)] + [1]  # end of block
    bits = huffman.code_lengths(litlen, 15).tolist()
    while not bits[-1]:
        bits.pop()
    cl_syms, _ = _rle_code_lengths(bits + [1])  # one distance code
    cl = [cl_syms.count(sym) for sym in range(19)]
    return (int(huffman.code_lengths(litlen, 31).max()),
            int(huffman.code_lengths(cl, 31).max()))


@pytest.mark.parametrize("name, depths", [
    ("deflate-nomatch-litlen-depth17-128k", (17, 4)),
    ("deflate-nomatch-cl-depth8-32k", (15, 8)),
])
def test_length_limit_pins_bind_and_decode_back(name, depths):
    make_input, encode = DIGEST_PINS[name]
    data = make_input()
    assert _unlimited_depths(data) == depths
    blob = encode(data)
    assert blob[0] >> 1 & 3 == 2  # one dynamic block
    assert deflate_decompress(blob) == data
    assert zlib.decompress(blob, -15) == data


def test_ac_pins_decode_back():
    """Every AC pin at the default ``max_total`` (the only one the RAC1
    header lets a decoder use) decodes to its input."""
    for name, (make_input, encode) in DIGEST_PINS.items():
        if name.startswith("ac-") and "maxtotal" not in name:
            data = make_input()
            assert ac_decompress(encode(data)) == data, name


def test_ac_skip_pin_halves_a_context_its_middle_chunk_skips():
    n = AC_SKIP_CHUNK
    config = ACConfig(chunk_bytes=n, max_total=1 << 10)
    make_input, _ = DIGEST_PINS["ac-maxtotal1k-skip"]
    data = np.frombuffer(make_input(), dtype=np.uint8)
    model = RowContextModel(config)
    model.update_chunk(data, 0, n)
    hot = int(model.context_hashes(data, 0, 1)[0])
    over = model.cum_row(hot)[256]
    assert over > config.max_total
    assert hot not in model.context_hashes(data, n, 2 * n)
    model.update_chunk(data, n, 2 * n)
    assert model.cum_row(hot)[256] < over


def _lz4_blocks(frame: bytes) -> "list[tuple[int, bool]]":
    """``(size, stored)`` of every block of a frame ``lz4_compress`` wrote
    (15-byte header: magic, FLG, BD, content size, HC)."""
    blocks, pos = [], 15
    while (word := int.from_bytes(frame[pos:pos + 4], "little")):
        size = word & 0x7FFFFFFF
        blocks.append((size, bool(word >> 31)))
        pos += 4 + size
    return blocks


def test_lz4_pins_decode_back():
    lz4 = {name: pin for name, pin in DIGEST_PINS.items() if name.startswith("lz4-")}
    assert len(lz4) == 9
    for name, (make_input, encode) in lz4.items():
        data = make_input()
        blob = encode(data)
        assert lz4_decompress(blob) == data, name
        if "-bd4-" in name:  # 64 KiB blocks: every window spans several
            assert len(_lz4_blocks(blob)) == -(-len(data) // (64 << 10)), name


def test_lz4_block_pins_decode_back():
    lz4b = {name: pin for name, pin in DIGEST_PINS.items() if name.startswith("lz4b-")}
    assert sorted(len(make_input()) for make_input, _ in lz4b.values()) == [
        128, 256, 1024, 2047, 2048, 2049]
    for name, (make_input, encode) in lz4b.items():
        data = make_input()
        blob = encode(data)
        assert len(blob) < len(data), name  # has matches, not only literals
        assert lz4_block_decompress(blob) == data, name


def test_lz4_acceleration_pin_reaches_the_stride_growth():
    make_input, encode = DIGEST_PINS["lz4-bd4-accel4-obs-error-96k"]
    data = make_input()
    _, default = DIGEST_PINS["lz4-bd4-obs-error-96k"]
    assert encode(data) != default(data)


def test_lz4_incompressible_pin_stores_every_block():
    make_input, encode = DIGEST_PINS["lz4-bd4-incompressible-80k"]
    assert _lz4_blocks(encode(make_input())) == [(64 << 10, True), (16 << 10, True)]
    make_input, encode = DIGEST_PINS["lz4-empty"]
    assert _lz4_blocks(encode(make_input())) == []


def _sz3_escape_share(stream: bytes) -> float:
    """Share of escapes among an SZ3R stream's residual symbols."""
    backend = lossless.BACKEND_NAMES[stream[8]]
    ndim = stream[6]
    payload = lossless.backend_decompress(stream[9 + 8 * ndim + 16:], backend)
    residuals = encoder.decode_residuals(payload)
    return float(((residuals >= 127) | (residuals <= -128)).mean())  # zigzag >= 254


def test_sz3_pins_cover_every_backend_and_decode_within_the_bound():
    sz3r = {name: pin for name, pin in DIGEST_PINS.items() if name.startswith("sz3r-")}
    assert set(PIN_DECODERS) == set(sz3r)
    assert {f"sz3r-{backend}-exaalt-8ki-floats" for backend in BACKENDS} < set(sz3r)
    assert "sz3r-interp-exaalt-8ki-floats" in sz3r
    for name, (make_input, encode) in sz3r.items():
        field = make_input()
        blob = encode(field)
        assert _sz3_escape_share(blob) > 0.1, name
        decoded = PIN_DECODERS[name](blob)
        assert decoded.shape == field.shape and decoded.dtype == field.dtype, name
        # float32 rounding of the dequantized value may add one ulp.
        slack = np.spacing(np.abs(field)).max()
        assert np.abs(decoded.astype(np.float64) - field).max() <= 1e-4 + slack, name


def test_ac_noise_pin_reaches_contexts_of_one_to_three_symbols():
    """The last chunk of the noise pin codes from contexts that have
    seen one, two and three distinct symbols (and from unseen ones)."""
    make_input, _ = DIGEST_PINS["ac-noise-16k"]
    data = np.frombuffer(make_input(), dtype=np.uint8)
    chunk = ACConfig().chunk_bytes
    model = RowContextModel(ACConfig())
    for start in range(0, len(data) - chunk, chunk):
        model.update_chunk(data, start, start + chunk)
    distinct = Counter(
        sum(hi - lo > 1 for lo, hi in zip(row, row[1:]))
        for row in map(model.cum_row,
                       model.context_hashes(data, len(data) - chunk, len(data)).tolist()))
    assert {0, 1, 2, 3} <= set(distinct)
