"""Twin-vs-production kernel equivalence.

Every hot kernel that grew a vectorized fast path keeps its scalar
twin in :mod:`repro.algorithms.reference`; these tests run the same
input through both implementations inside one process (production,
then the same call inside :func:`~repro.algorithms.reference.twins`)
and require **byte-identical** results — not "close", identical.  The corpus is adversarial by construction
(empty, single byte, all-zero, incompressible, max-match-length runs,
NaN/Inf/denormal floats) plus hypothesis-generated inputs, with the
seeded corpus rotating via ``REPRO_FUZZ_SEED`` like the round-trip
fuzzers.
"""

from __future__ import annotations

import os
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms import huffman
from repro.algorithms.ac import ACConfig
from repro.algorithms.ac.model import ContextModel
from repro.algorithms.deflate import (
    DeflateConfig,
    deflate_compress,
    deflate_decompress,
)
from repro.algorithms.deflate import compress as deflate_compress_module
from repro.algorithms.lz77 import MatcherConfig, tokenize
from repro.algorithms.reference import huffman as huffman_reference
from repro.algorithms.reference import twins
from repro.algorithms.sz3.predictor import predict_residual, reconstruct_codes
from repro.algorithms.sz3.quantizer import dequantize, quantize
from repro.datasets import get_dataset
from repro.util.bitio import BitWriter
from repro.util.scratch import ScratchPool, set_scratch_pool

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260806"))


def both_modes(fn):
    """Run ``fn`` on the reference twins, then on the production kernels."""
    with twins():
        scalar = fn()
    return scalar, fn()


def adversarial_corpus() -> "dict[str, bytes]":
    rng = np.random.default_rng(BASE_SEED)
    return {
        "empty": b"",
        "one_byte": b"\xa5",
        "two_bytes": b"ab",
        "all_zero": b"\x00" * 5000,
        "incompressible": rng.bytes(4096),
        "max_match_runs": b"A" * (258 * 4 + 7) + b"B" * 258 + b"A" * 300,
        "period2": b"\x7f\x80" * 700,
        "period3": b"abc" * 900,
        "period4_break": (b"PQRS" * 300 + b"\x00" * 600) * 2,
        "ascii_noise": bytes(rng.integers(32, 127, 4096, dtype=np.uint8)),
        "xml_sample": bytes(get_dataset("silesia/xml").generate(32 * 1024)),
    }


CORPUS = adversarial_corpus()


# -- LZ77 + DEFLATE ---------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_tokenize_equivalence_corpus(case):
    data = CORPUS[case]
    scalar, vec = both_modes(lambda: tokenize(data))
    assert scalar.lengths == vec.lengths
    assert scalar.values == vec.values
    assert scalar.n_input == vec.n_input


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_deflate_compress_equivalence_corpus(case):
    data = CORPUS[case]
    scalar, vec = both_modes(lambda: deflate_compress(data))
    assert scalar == vec


def test_tokenize_equivalence_tiny_window():
    # Small window + short chains hit the budget/window break arms.
    cfg = MatcherConfig(window_size=64, max_chain=4, good_match=4)
    data = CORPUS["period3"] + CORPUS["max_match_runs"]
    scalar, vec = both_modes(lambda: tokenize(data, cfg))
    assert scalar.lengths == vec.lengths
    assert scalar.values == vec.values


@settings(max_examples=40)
@given(st.binary(max_size=2048))
def test_tokenize_equivalence_hypothesis(data):
    scalar, vec = both_modes(lambda: tokenize(data))
    assert scalar.lengths == vec.lengths
    assert scalar.values == vec.values


#: Arbitrary bytes up to 1 KiB, then inputs either side of the
#: small-block threshold (512 tokens): xml windows of 2-4 KiB (~400-620
#: tokens, matches and literals mixed) and 256-1024 seeded random bytes
#: (as many tokens, all literals).
_SMALL_AND_LARGE_BLOCKS = st.one_of(
    st.binary(max_size=1024),
    st.builds(lambda start, size: CORPUS["xml_sample"][start:start + size],
              st.integers(0, len(CORPUS["xml_sample"]) - 4096),
              st.integers(2048, 4096)),
    st.builds(lambda seed, size: np.random.default_rng(seed).bytes(size),
              st.integers(0, 2**32 - 1), st.integers(256, 1024)),
)


@settings(max_examples=40, deadline=None)
@given(
    _SMALL_AND_LARGE_BLOCKS,
    st.sampled_from(["auto", "fixed", "dynamic", "stored"]),
    st.one_of(st.integers(1, 300), st.just(DeflateConfig().block_tokens)),
)
def test_deflate_equivalence_hypothesis(data, strategy, block_tokens):
    """Production equals the twin pipeline, and every block encoded from
    the token lists equals the same block through the numpy arrays."""
    cfg = DeflateConfig(strategy=strategy, block_tokens=block_tokens)
    scalar, vec = both_modes(lambda: deflate_compress(data, cfg))
    assert scalar == vec
    with patch.object(deflate_compress_module, "_SMALL_BLOCK_TOKENS", 0):
        assert deflate_compress(data, cfg) == vec


# -- Huffman emission -------------------------------------------------------


@settings(max_examples=40)
@given(
    st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=80),
    st.integers(min_value=5, max_value=15),
)
def test_canonical_codes_equivalence(freq_list, max_bits):
    freqs = np.asarray(freq_list, dtype=np.int64)
    if not freqs.any():
        freqs[0] = 1
    assume(np.count_nonzero(freqs) <= 1 << max_bits)  # else no such code exists
    lengths = huffman.code_lengths(freqs, max_bits)
    scalar, vec = both_modes(lambda: huffman.canonical_codes(lengths))
    assert np.array_equal(scalar, vec)


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 16) - 1),
            st.integers(min_value=0, max_value=16),
        ),
        max_size=120,
    ),
    st.integers(min_value=0, max_value=7),
)
def test_write_code_array_equivalence(pairs, lead_bits):
    codes = np.asarray([c for c, _ in pairs], dtype=np.uint32)
    lengths = np.asarray([l for _, l in pairs], dtype=np.int64)

    def emit():
        writer = BitWriter()
        if lead_bits:  # non-byte-aligned pending prefix
            writer.write_bits((1 << lead_bits) - 1, lead_bits)
        writer.write_code_array(codes, lengths)
        writer.write_bits(0b101, 3)  # tail after the bulk region
        return writer.getvalue()

    scalar, vec = both_modes(emit)
    assert scalar == vec


# -- Entropy stage vs its retained reference twins --------------------------
#
# The count-only package-merge, the table-driven code reversal and the
# word-at-a-time inflate have no call-time site: their pre-rewrite twins
# live in ``reference.huffman`` and are compared here on the histograms
# and streams real blocks produce (tests/algorithms/test_huffman.py has
# the synthetic families).


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_block_code_lengths_equal_reference(case):
    tokens = tokenize(CORPUS[case], MatcherConfig())
    syms = deflate_compress_module._map_symbols(*tokens.arrays())
    litlen_freq = np.bincount(syms["litlen_sym"], minlength=286)
    litlen_freq[256] += 1
    dist_freq = np.bincount(syms["dist_sym"], minlength=30)
    litlen = huffman.code_lengths(litlen_freq, 15)
    dist = huffman.code_lengths(dist_freq, 15)
    assert np.array_equal(litlen, huffman_reference.code_lengths(litlen_freq, 15))
    assert np.array_equal(dist, huffman_reference.code_lengths(dist_freq, 15))
    cl_syms, _ = deflate_compress_module._rle_code_lengths(
        np.concatenate([litlen, dist]).tolist()
    )
    cl_freq = np.bincount(cl_syms, minlength=19)
    assert np.array_equal(
        huffman.code_lengths(cl_freq, 7), huffman_reference.code_lengths(cl_freq, 7)
    )
    for lengths in (litlen, dist):
        assert np.array_equal(
            huffman.lsb_codes(lengths), huffman_reference.lsb_codes(lengths)
        )


@pytest.mark.parametrize("strategy", ["auto", "fixed", "dynamic", "stored"])
@pytest.mark.parametrize("case", sorted(CORPUS))
def test_inflate_equals_reference(case, strategy):
    data = CORPUS[case]
    cfg = DeflateConfig(strategy=strategy, block_tokens=700)  # multi-block
    stream = deflate_compress(data, cfg)
    assert deflate_decompress(stream) == huffman_reference.inflate(stream) == data


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=1024))
def test_inflate_equals_reference_hypothesis(data):
    stream = deflate_compress(data)
    assert deflate_decompress(stream) == huffman_reference.inflate(stream) == data


# -- Scratch traffic --------------------------------------------------------

# A token is at most litlen(15) + len-extra(5) + dist(15) + dist-extra(13) bits.
_MAX_TOKEN_BITS = 48
# Pending-bit rounding (2 bytes) + the emitter's byte planes (at most 5).
_PACK_SLACK = 2 + 5


class _RecordingPool(ScratchPool):
    """Notes the size of every request ``write_code_array`` makes."""

    def __init__(self) -> None:
        super().__init__()
        self.requests: "list[int]" = []

    def acquire(self, nbytes):
        self.requests.append(nbytes)
        return super().acquire(nbytes)


@pytest.mark.parametrize("block_tokens", [1 << 20, 256])
@pytest.mark.parametrize("strategy", ["auto", "fixed", "dynamic"])
@pytest.mark.parametrize("case", sorted(CORPUS))
def test_scratch_requests_are_block_bounded(case, strategy, block_tokens):
    """Host scratch is sized by one block, never by the message: each
    request fits 48 bits per token of its block, and under ``auto`` —
    which stores any block Huffman coding would grow — its raw bytes."""
    data = CORPUS[case]
    cfg = DeflateConfig(strategy=strategy, block_tokens=block_tokens)
    tok_lengths, _ = tokenize(data, cfg.matcher).arrays()
    starts = range(0, tok_lengths.size, block_tokens)
    block_tokens_max = max(
        (tok_lengths[s:s + block_tokens].size for s in starts), default=0)
    block_raw_max = max(
        (int(np.maximum(tok_lengths[s:s + block_tokens], 1).sum())
         for s in starts), default=0)

    pool = _RecordingPool()
    previous = set_scratch_pool(pool)
    try:
        deflate_compress(data, cfg)
    finally:
        set_scratch_pool(previous)

    assert len(pool.requests) <= len(starts)  # at most one per block
    for nbytes in pool.requests:
        assert nbytes <= _MAX_TOKEN_BITS * block_tokens_max // 8 + _PACK_SLACK
        if strategy == "auto":
            stored = block_raw_max + 5 * (1 + block_raw_max // 65535) + 1
            assert nbytes <= stored + _PACK_SLACK


# -- SZ3 quantizer / predictor ----------------------------------------------


def float_corpus() -> "dict[str, np.ndarray]":
    rng = np.random.default_rng(BASE_SEED + 1)
    specials = np.array(
        [0.0, -0.0, 1.5, -2.25, np.inf, -np.inf, np.nan,
         np.finfo(np.float32).tiny, 5e-39, -5e-39,  # denormals
         np.finfo(np.float32).max, np.finfo(np.float32).min],
        dtype=np.float32,
    )
    return {
        "specials": specials,
        "smooth": np.sin(np.linspace(0, 20, 500)).astype(np.float32),
        "noise3d": rng.normal(size=(4, 3, 5)).astype(np.float32),
        "empty": np.zeros(0, dtype=np.float32),
    }


@pytest.mark.parametrize("case", sorted(float_corpus()))
@pytest.mark.parametrize("eb", [1e-3, 1e-1])
def test_quantize_equivalence(case, eb):
    data = float_corpus()[case]
    if case == "specials":
        # NaN/Inf -> int64 casts are platform-defined; both kernels must
        # still agree bit for bit because they share the same cast.
        with np.errstate(invalid="ignore"):
            scalar, vec = both_modes(lambda: quantize(data, eb))
    else:
        scalar, vec = both_modes(lambda: quantize(data, eb))
    assert scalar.dtype == vec.dtype
    assert scalar.tobytes() == vec.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dequantize_equivalence(dtype):
    rng = np.random.default_rng(BASE_SEED + 2)
    codes = rng.integers(-(1 << 20), 1 << 20, size=257).astype(np.int64)
    scalar, vec = both_modes(lambda: dequantize(codes, 1e-3, np.dtype(dtype)))
    assert scalar.dtype == vec.dtype
    assert scalar.tobytes() == vec.tobytes()


@pytest.mark.parametrize("shape", [(0,), (1,), (17,), (5, 4), (3, 4, 2)])
def test_lorenzo_equivalence(shape):
    rng = np.random.default_rng(BASE_SEED + 3)
    codes = rng.integers(-1000, 1000, size=shape).astype(np.int64)
    s_res, v_res = both_modes(lambda: predict_residual(codes, "lorenzo"))
    assert np.array_equal(s_res, v_res)
    s_rec, v_rec = both_modes(lambda: reconstruct_codes(s_res, "lorenzo"))
    assert np.array_equal(s_rec, v_rec)
    assert np.array_equal(s_rec, codes)  # exact inverse, both modes


# -- AC context model -------------------------------------------------------


@pytest.mark.parametrize("order", [0, 1, 2, 4])
@pytest.mark.parametrize("start,stop", [(0, 0), (0, 7), (0, 64), (3, 80), (64, 192)])
def test_context_hashes_equivalence(order, start, stop):
    rng = np.random.default_rng(BASE_SEED + 4)
    data = rng.integers(0, 256, 256, dtype=np.uint8)
    model_cfg = ACConfig(order=order)
    model = ContextModel(model_cfg)
    scalar, vec = both_modes(lambda: model.context_hashes(data, start, stop))
    assert np.array_equal(scalar, vec)


@settings(max_examples=30)
@given(st.binary(min_size=0, max_size=600), st.integers(min_value=0, max_value=4))
def test_context_hashes_hypothesis(raw, order):
    data = np.frombuffer(raw, dtype=np.uint8)
    model = ContextModel(ACConfig(order=order))
    stop = data.size
    scalar, vec = both_modes(lambda: model.context_hashes(data, 0, stop))
    assert np.array_equal(scalar, vec)
