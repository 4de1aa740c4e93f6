"""Named inputs of the two LZ4 rows of :mod:`tests.algorithms.test_twins`.

``lz4.block`` probes and extends matches with XORs of 8-byte words and
decodes a sequence at a time; ``reference.lz4`` keeps the per-byte
predecessors (4-byte slice probe, 16-byte-slice then byte-by-byte
extension, a dict table under 2 KiB).  Through
:func:`~tests.algorithms.test_twins.agree`, compression must give the
same block, which decodes back to the input, and decompression the same
bytes or the same error class:
hypothesis over 0-4 KiB at accelerations 1, 2 and 8, every input of at
most 15 bytes over two symbols, the corpora and lengths around 2 KiB
where the twin switches table, and every cut and every bit flip of
valid blocks.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.algorithms.lz4 import Lz4Config, lz4_block_compress, lz4_block_decompress
from repro.datasets import get_dataset
from tests.algorithms.test_twins import agree, damaged_lz4_blocks, given_agree, given_case


def assert_same_block(data: bytes, config: "Lz4Config | None") -> None:
    """The kernel's block equals the twin's and decodes back to ``data``
    (the twin shares the sequence emitter, the round trip does not)."""
    assert lz4_block_decompress(agree("lz4_block_compress", data, config)) == data


test_blocks_equal_twin_blocks_hypothesis = given_case("lz4_block_compress")(assert_same_block)


def test_every_short_two_symbol_input():
    """Every input of at most 15 bytes over ``a``/``b``; from 13 bytes
    on a match can start, and backward extension, the end-of-block cap
    and the overlapping offsets all meet in a few bytes."""
    for n in range(16):
        for symbols in itertools.product(b"ab", repeat=n):
            assert_same_block(bytes(symbols), None)


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
            assert_same_block(corpus[:n], None)


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
    for data in (b"\x00" * 100000, b"ab" * 40000, bytes(range(256)) * 64,
                 memoryview(b"the quick brown fox jumps over the lazy dog. " * 50)):
        assert_same_block(data, None)


def valid_lz4_blocks() -> "list[bytes]":
    xml = bytes(get_dataset("silesia/xml").generate(8 * 1024))
    return [
        lz4_block_compress(b"abcabcabc-0123456789-the quick brown fox" * 3),
        lz4_block_compress(xml[:700]),
        lz4_block_compress(b"Lorem ipsum " + b"A" * 600 + b" dolor sit"),
        bytes([0x3F]) + b"abc" + bytes([3, 0, 0xFF, 40]) + b"\x30END",  # overlap
        b"\x00",  # the empty block's closing sequence
    ]


@pytest.mark.parametrize("index", range(5))
def test_decode_valid_cut_and_flipped_blocks(index):
    """Each valid block, every prefix of it, and every single bit flip,
    with no cap and with a cap a little under the true size."""
    for args in damaged_lz4_blocks(valid_lz4_blocks()[index]):
        agree("lz4_block_decompress", *args)


test_decode_random_bytes = given_agree("lz4_block_decompress")
