"""Kernel equivalence over the byte and float corpora, and bounded scratch.

The kernel-against-twin cases here are named inputs of the rows in
:mod:`tests.algorithms.test_twins` and compare through its
:func:`~tests.algorithms.test_twins.agree`: the same tokens, arrays,
bytes or typed error.  Two cases run the whole DEFLATE pipeline on the
production kernels and again inside
:func:`~repro.algorithms.reference.twins`; the last group holds host
scratch to one block.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import huffman
from repro.algorithms.ac import ACConfig
from repro.algorithms.ac.model import ContextModel
from repro.algorithms.deflate import DeflateConfig, deflate_compress
from repro.algorithms.deflate import compress as deflate_compress_module
from repro.algorithms.lz77 import MatcherConfig, tokenize
from repro.algorithms.reference import twins
from repro.algorithms.sz3.predictor import predict_residual
from repro.bench.regress import _block_trees
from repro.util.scratch import ScratchPool, set_scratch_pool
from tests.algorithms.test_twins import (
    BASE_SEED,
    CORPUS,
    agree,
    deflate_sources,
    deflated,
    given_agree,
    given_case,
)

LZ77_ROWS = ("tokenize", "tokenize_small")


def both_modes(fn):
    """Run ``fn`` on the reference twins, then on the production kernels."""
    with twins():
        scalar = fn()
    return scalar, fn()


# -- LZ77 + DEFLATE ---------------------------------------------------------


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_tokenize_equivalence_corpus(case):
    for row in LZ77_ROWS:
        agree(row, CORPUS[case], None)


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_deflate_compress_equivalence_corpus(case):
    data = CORPUS[case]
    scalar, vec = both_modes(lambda: deflate_compress(data))
    assert scalar == vec


def test_tokenize_equivalence_tiny_window():
    # Small window + short chains hit the budget/window break arms.
    cfg = MatcherConfig(window_size=64, max_chain=4, good_match=4)
    for row in LZ77_ROWS:
        agree(row, CORPUS["period3"] + CORPUS["max_match_runs"], cfg)


@settings(max_examples=40)
@given(st.binary(max_size=2048))
def test_tokenize_equivalence_hypothesis(data):
    """``tokenize`` as production calls it, with its kernels rebound to
    the twin and without."""
    scalar, vec = both_modes(lambda: tokenize(data))
    assert (scalar.lengths, scalar.values) == (vec.lengths, vec.values)


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


# -- Huffman ------------------------------------------------------------------


test_canonical_codes_equivalence = given_agree("canonical_codes")
test_write_code_array_equivalence = given_agree("write_code_array")


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_block_code_lengths_equal_reference(case):
    """The histograms and trees real blocks produce: code lengths and
    their LSB-first codes."""
    for freqs, max_bits in _block_trees(CORPUS[case]):
        agree("code_lengths", freqs, max_bits)
        agree("lsb_codes", huffman.code_lengths(freqs, max_bits))


@pytest.mark.parametrize("strategy", ["auto", "fixed", "dynamic", "stored"])
@pytest.mark.parametrize("case", sorted(CORPUS))
def test_inflate_equals_reference(case, strategy):
    data = CORPUS[case]
    cfg = DeflateConfig(strategy=strategy, block_tokens=700)  # multi-block
    assert agree("inflate", deflate_compress(data, cfg)) == data


@given_case("inflate", deflate_sources)
def test_inflate_equals_reference_hypothesis(data, strategy):
    assert agree("inflate", deflated(data, strategy)) == data


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
    agree("quantize", float_corpus()[case], 2.0 * eb)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dequantize_equivalence(dtype):
    rng = np.random.default_rng(BASE_SEED + 2)
    codes = rng.integers(-(1 << 20), 1 << 20, size=257).astype(np.int64)
    agree("dequantize", codes, 2e-3, np.dtype(dtype))


@pytest.mark.parametrize("shape", [(0,), (1,), (17,), (5, 4), (3, 4, 2)])
def test_lorenzo_equivalence(shape):
    rng = np.random.default_rng(BASE_SEED + 3)
    codes = rng.integers(-1000, 1000, size=shape).astype(np.int64)
    agree("lorenzo_residual", codes)
    residual = predict_residual(codes, "lorenzo")
    assert agree("lorenzo_reconstruct", residual)[2] == codes.tobytes()  # exact inverse


# -- AC context model -------------------------------------------------------


@pytest.mark.parametrize("order", [0, 1, 2, 4])
@pytest.mark.parametrize("start,stop", [(0, 0), (0, 7), (0, 64), (3, 80), (64, 192)])
def test_context_hashes_equivalence(order, start, stop):
    rng = np.random.default_rng(BASE_SEED + 4)
    data = rng.integers(0, 256, 256, dtype=np.uint8)
    agree("context_hashes", ContextModel(ACConfig(order=order)), data, start, stop)


test_context_hashes_hypothesis = given_agree("context_hashes")
