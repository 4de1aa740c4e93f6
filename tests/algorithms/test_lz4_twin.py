"""The LZ4 block codec against its per-byte twins.

``lz4.block`` probes and extends matches with XORs of 8-byte words and
decodes a sequence at a time; ``reference.lz4`` keeps the per-byte
predecessors (4-byte slice probe, 16-byte-slice then byte-by-byte
extension, a dict table under 2 KiB).  Compression must give the same
block, and decompression the same bytes or the same error class, on
every input: hypothesis over 0-4 KiB at accelerations 1, 2 and 8,
every input of at most 15 bytes over two symbols, the corpora and
lengths around 2 KiB where the twin switches table, and every cut and
every bit flip of valid blocks.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.lz4 import Lz4Config
from repro.algorithms.lz4 import block as production
from repro.algorithms.reference import lz4 as twin
from repro.datasets import get_dataset
from repro.errors import ReproError


def assert_same_block(data: bytes, config: Lz4Config | None = None) -> bytes:
    block = production.lz4_block_compress(data, config)
    assert block == twin.lz4_block_compress(data, config), (len(data), config)
    assert production.lz4_block_decompress(block) == data
    return block


def decode_outcome(decode, block: bytes, max_output: int | None):
    """The decoded bytes, or the class of the typed error raised."""
    try:
        return decode(block, max_output)
    except ReproError as exc:
        return type(exc)


def assert_same_decode(block: bytes, max_output: int | None = None) -> None:
    got = decode_outcome(production.lz4_block_decompress, block, max_output)
    want = decode_outcome(twin.lz4_block_decompress, block, max_output)
    assert got == want, (block.hex(), max_output)


def _low_entropy(seed: int, n: int, symbols: int, phrase: int) -> bytes:
    """``n`` bytes over ``symbols`` values, every other run of ``phrase``
    bytes copied from a random earlier place (so matches of every
    length and offset appear)."""
    rng = np.random.default_rng(seed)
    out = bytearray(rng.integers(0, symbols, n, dtype=np.uint8).tobytes())
    for start in range(phrase, n - phrase, 2 * phrase):
        src = int(rng.integers(0, start))
        out[start:start + phrase] = out[src:src + phrase]
    return bytes(out)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 4096),
       symbols=st.sampled_from([1, 2, 3, 4, 16, 256]),
       phrase=st.integers(1, 300), acceleration=st.sampled_from([1, 2, 8]))
@settings(max_examples=150, deadline=None)
def test_blocks_equal_twin_blocks_hypothesis(seed, n, symbols, phrase, acceleration):
    assert_same_block(_low_entropy(seed, n, symbols, phrase),
                      Lz4Config(acceleration=acceleration))


def test_every_short_two_symbol_input():
    """Every input of at most 15 bytes over ``a``/``b``; from 13 bytes
    on a match can start, and backward extension, the end-of-block cap
    and the overlapping offsets all meet in a few bytes."""
    for n in range(16):
        for symbols in itertools.product(b"ab", repeat=n):
            assert_same_block(bytes(symbols))


def test_corpora_around_the_twins_table_switch():
    """The corpora and lengths the twin's dict/list table switch was
    tested on: every length 0..300 and a stride to 4 KiB, with 2 047,
    2 048, 2 049 and 4 096."""
    rng = np.random.default_rng(8)
    corpora = [
        b"the quick brown fox jumps over the lazy dog. " * 100,
        bytes(rng.integers(0, 4, size=4200, dtype=np.uint8)),
        rng.bytes(4200),
        b"\x00" * 4200,
    ]
    lengths = [*range(301), *range(301, 4200, 97), 2047, 2048, 2049, 4096]
    for corpus in corpora:
        for n in lengths:
            assert_same_block(corpus[:n])


@pytest.mark.parametrize("key", ["silesia/xml", "silesia/mozilla", "obs_error",
                                 "net_telemetry"])
@pytest.mark.parametrize("acceleration", [1, 4])
def test_dataset_windows(key, acceleration):
    """Benchmark-sized windows: long matches, step acceleration on the
    near-incompressible floats, hypersparse telemetry runs."""
    corpus = bytes(get_dataset(key).generate(96 * 1024))
    for n in (128, 1024, 65536, len(corpus)):
        assert_same_block(corpus[:n], Lz4Config(acceleration=acceleration))


def test_long_runs_and_memoryview():
    for data in (b"\x00" * 100000, b"ab" * 40000, bytes(range(256)) * 64):
        assert_same_block(data)
    data = b"the quick brown fox jumps over the lazy dog. " * 50
    assert production.lz4_block_compress(memoryview(data)) == \
        twin.lz4_block_compress(data)


def _valid_blocks() -> "list[bytes]":
    xml = bytes(get_dataset("silesia/xml").generate(8 * 1024))
    return [
        production.lz4_block_compress(b"abcabcabc-0123456789-the quick brown fox" * 3),
        production.lz4_block_compress(xml[:700]),
        production.lz4_block_compress(b"Lorem ipsum " + b"A" * 600 + b" dolor sit"),
        bytes([0x3F]) + b"abc" + bytes([3, 0, 0xFF, 40]) + b"\x30END",  # overlap
        b"\x00",  # the empty block's closing sequence
    ]


@pytest.mark.parametrize("index", range(5))
def test_decode_valid_cut_and_flipped_blocks(index):
    """Each valid block, every prefix of it, and every single bit flip,
    with no cap and with a cap a little under the true size: the same
    bytes or the same typed error from both decoders."""
    block = _valid_blocks()[index]
    size = len(twin.lz4_block_decompress(block))
    for cap in (None, max(size - 3, 0)):
        assert_same_decode(block, cap)
        for keep in range(len(block)):
            assert_same_decode(block[:keep], cap)
        for bit in range(len(block) * 8):
            flipped = bytearray(block)
            flipped[bit // 8] ^= 1 << (bit % 8)
            assert_same_decode(bytes(flipped), cap)


@given(st.binary(max_size=300), st.one_of(st.none(), st.integers(-2, 2000)))
@settings(max_examples=300, deadline=None)
def test_decode_random_bytes(blob, cap):
    assert_same_decode(blob, cap)
