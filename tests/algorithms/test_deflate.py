"""DEFLATE: roundtrips, stdlib interop, block strategies, corruption."""

import zlib as stdzlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.deflate import (
    DeflateConfig,
    deflate_compress,
    deflate_decompress,
)
from repro.algorithms.lz77 import MatcherConfig
from repro.errors import CorruptStreamError, OutputOverflowError


def std_deflate(data: bytes, level: int = 6) -> bytes:
    """Raw DEFLATE stream from the stdlib (strip zlib wrapper)."""
    compressor = stdzlib.compressobj(level, stdzlib.DEFLATED, -15)
    return compressor.compress(data) + compressor.flush()


SAMPLES = [
    b"",
    b"a",
    b"aaaaaaaaaaaaaaaaaaaaaaaaa",
    b"the quick brown fox jumps over the lazy dog. " * 100,
    bytes(range(256)) * 20,
    np.random.default_rng(0).bytes(3000),
    b"\x00" * 70000,  # forces >1 stored chunk if stored is chosen
]


class TestRoundtrip:
    @pytest.mark.parametrize("idx", range(len(SAMPLES)))
    def test_roundtrip(self, idx):
        data = SAMPLES[idx]
        assert deflate_decompress(deflate_compress(data)) == data

    @pytest.mark.parametrize("strategy", ["auto", "fixed", "dynamic", "stored"])
    def test_strategies(self, strategy, text_payload):
        cfg = DeflateConfig(strategy=strategy)
        stream = deflate_compress(text_payload, cfg)
        assert deflate_decompress(stream) == text_payload

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            DeflateConfig(strategy="best")

    def test_oversized_window_rejected(self):
        with pytest.raises(ValueError):
            DeflateConfig(matcher=MatcherConfig(window_size=65536))

    def test_oversized_match_rejected(self):
        with pytest.raises(ValueError):
            DeflateConfig(matcher=MatcherConfig(max_match=512))

    def test_multi_block(self, text_payload):
        cfg = DeflateConfig(block_tokens=64)
        stream = deflate_compress(text_payload, cfg)
        assert deflate_decompress(stream) == text_payload

    def test_stored_fallback_on_random(self):
        rng = np.random.default_rng(1)
        data = rng.bytes(100000)
        stream = deflate_compress(data)
        # Random data must not expand meaningfully (stored fallback).
        assert len(stream) < len(data) * 1.01
        assert deflate_decompress(stream) == data

    def test_compressible_text_ratio(self, text_payload):
        stream = deflate_compress(text_payload)
        assert len(text_payload) / len(stream) > 5.0


class TestStdlibInterop:
    @pytest.mark.parametrize("idx", range(len(SAMPLES)))
    def test_stdlib_inflates_ours(self, idx):
        data = SAMPLES[idx]
        assert stdzlib.decompress(deflate_compress(data), wbits=-15) == data

    @pytest.mark.parametrize("idx", range(len(SAMPLES)))
    def test_we_inflate_stdlib(self, idx):
        data = SAMPLES[idx]
        assert deflate_decompress(std_deflate(data)) == data

    @pytest.mark.parametrize("level", [1, 6, 9])
    def test_we_inflate_all_stdlib_levels(self, level, text_payload):
        assert deflate_decompress(std_deflate(text_payload, level)) == text_payload

    def test_stdlib_inflates_fixed_blocks(self, text_payload):
        stream = deflate_compress(text_payload[:500], DeflateConfig(strategy="fixed"))
        assert stdzlib.decompress(stream, wbits=-15) == text_payload[:500]

    def test_stdlib_inflates_stored_blocks(self):
        data = b"\x01\x02" * 40000
        stream = deflate_compress(data, DeflateConfig(strategy="stored"))
        assert stdzlib.decompress(stream, wbits=-15) == data


class TestCorruption:
    def test_truncated_stream(self, text_payload):
        stream = deflate_compress(text_payload)
        with pytest.raises(CorruptStreamError):
            deflate_decompress(stream[: len(stream) // 2])

    def test_reserved_block_type(self):
        with pytest.raises(CorruptStreamError):
            deflate_decompress(bytes([0b111]))  # BFINAL=1, BTYPE=3

    def test_stored_len_nlen_mismatch(self):
        # BFINAL=1, BTYPE=00, aligned, LEN=5, NLEN=5 (must be ~5).
        with pytest.raises(CorruptStreamError):
            deflate_decompress(bytes([0b001, 5, 0, 5, 0]) + b"hello")

    def test_output_limit_enforced(self, text_payload):
        stream = deflate_compress(text_payload)
        with pytest.raises(OutputOverflowError):
            deflate_decompress(stream, max_output=10)

    def test_output_limit_exact_size_passes(self, text_payload):
        stream = deflate_compress(text_payload)
        out = deflate_decompress(stream, max_output=len(text_payload))
        assert out == text_payload

    def test_empty_input_stream(self):
        with pytest.raises(CorruptStreamError):
            deflate_decompress(b"")


def _fixed_block(literals: bytes, matches: "list[tuple[int, int]]") -> bytes:
    """A hand-built final fixed-Huffman block: ``literals``, then one
    ``(length, distance)`` back-reference per entry, then end-of-block."""
    from repro.algorithms.deflate import tables as T
    from repro.util.bitio import BitWriter

    w = BitWriter()
    w.write_bits(0b011, 3)  # BFINAL=1, BTYPE=01

    def put(sym):
        w.write_bits(int(T.FIXED_LITLEN_CODES[sym]), int(T.FIXED_LITLEN_LENGTHS[sym]))

    for byte in literals:
        put(byte)
    for length, dist in matches:
        lsym = int(T.LENGTH_SYM_FOR_LEN[length])
        put(257 + lsym)
        w.write_bits(length - int(T.LENGTH_BASE[lsym]), int(T.LENGTH_EXTRA[lsym]))
        dsym = int(T.dist_symbol(np.array([dist]))[0])
        w.write_bits(int(T.FIXED_DIST_CODES[dsym]), 5)
        w.write_bits(dist - int(T.DIST_BASE[dsym]), int(T.DIST_EXTRA[dsym]))
    put(256)
    return w.getvalue()


class TestOverlappingCopy:
    """``dist < length``: the copy reads bytes it has just written."""

    @pytest.mark.parametrize("dist", range(1, 8))
    def test_short_period_max_length(self, dist):
        period = bytes(range(65, 65 + dist))
        stream = _fixed_block(period, [(258, dist), (258, dist)])
        expected = (period * (516 // dist + 2))[: dist + 516]
        assert stdzlib.decompress(stream, wbits=-15) == expected
        assert deflate_decompress(stream) == expected

    @pytest.mark.parametrize("length", [3, 4, 5, 7, 8, 9, 257, 258])
    def test_lengths_around_the_period(self, length):
        stream = _fixed_block(b"abcd", [(length, 4), (length, 3)])
        assert deflate_decompress(stream) == stdzlib.decompress(stream, wbits=-15)

    def test_all_zero_64k(self):
        data = bytes(64 * 1024)
        stream = deflate_compress(data)
        assert len(stream) < 200
        assert stdzlib.decompress(stream, wbits=-15) == data
        assert deflate_decompress(stream) == data

    def test_reference_before_start_rejected(self):
        with pytest.raises(CorruptStreamError):
            deflate_decompress(_fixed_block(b"ab", [(258, 3)]))

    def test_output_limit_enforced_inside_a_run(self):
        stream = _fixed_block(b"a", [(258, 1)] * 40)
        assert len(deflate_decompress(stream, max_output=1 + 258 * 40)) == 10321
        with pytest.raises(OutputOverflowError):
            deflate_decompress(stream, max_output=5000)


@given(st.binary(max_size=4000))
@settings(max_examples=50, deadline=None)
def test_property_roundtrip(blob):
    assert deflate_decompress(deflate_compress(blob)) == blob


@given(st.binary(max_size=4000))
@settings(max_examples=50, deadline=None)
def test_property_stdlib_differential(blob):
    """Our stream decodes under stdlib; stdlib's decodes under ours."""
    assert stdzlib.decompress(deflate_compress(blob), wbits=-15) == blob
    assert deflate_decompress(std_deflate(blob)) == blob


@given(
    st.lists(
        st.tuples(st.sampled_from([b"abc", b"xy", b"hello world ", b"\x00\x00"]),
                  st.integers(1, 50)),
        max_size=30,
    )
)
@settings(max_examples=40, deadline=None)
def test_property_structured_repetition(chunks):
    blob = b"".join(piece * count for piece, count in chunks)
    stream = deflate_compress(blob)
    assert deflate_decompress(stream) == blob
    assert stdzlib.decompress(stream, wbits=-15) == blob
