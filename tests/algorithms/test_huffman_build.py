"""Named inputs of the ``code_lengths`` and ``decoder_table`` rows of
:mod:`tests.algorithms.test_twins`.

``huffman._code_lengths`` builds an unlimited Huffman code with the
two-queue method and falls back to count-only package-merge only when
the deepest leaf exceeds ``max_bits``; ``HuffmanDecoder`` builds tables
up to ``_LIST_TABLE_BITS`` wide from plain lists and wider ones through
numpy.  Both must reproduce ``repro.algorithms.reference`` exactly,
array for array, because every compressed stream is pinned byte for
byte.  The families here are the ones where two optimal codes could
differ: heavy ties, and powers-of-two chains whose unlimited depth sits
just below, at and just above the limit.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms import huffman
from repro.errors import CorruptStreamError
from tests.algorithms.test_twins import agree, given_agree, tied_histograms


def _unlimited_depth(freqs: "list[int]") -> int:
    leaves = sorted(f for f in freqs if f)
    return max(huffman._huffman_depths(leaves)) if len(leaves) > 1 else len(leaves)


@given(tied_histograms())
@settings(max_examples=400, deadline=None)
def test_two_queue_lengths_equal_reference(case):
    """Where the limit does not bind, the two-queue depths are the ones
    package-merge, the builder it replaced, gives: it joins a leaf before
    a node of equal weight, package-merge's tie rule.  (The ``code_lengths``
    row compares both paths with the twin.)"""
    freqs, max_bits = case
    leaves = sorted(int(f) for f in freqs if f)
    depths = huffman._huffman_depths(leaves)
    if depths[0] <= max_bits:
        assert depths == huffman._package_merge(leaves, max_bits)


@pytest.mark.parametrize("max_bits", [7, 15])
@pytest.mark.parametrize("offset", [-1, 0, 1, 2])
def test_powers_of_two_chain_either_side_of_the_limit(max_bits, offset):
    """``1, 1, 2, 4, ..., 2**(d - 1)`` has unlimited depth ``d``: at or
    below the limit the two-queue code is returned, above it the
    package-merge fallback runs; both equal the twin."""
    depth = max_bits + offset
    freqs = [1] + [1 << k for k in range(depth)]
    assert _unlimited_depth(freqs) == depth
    assert max(huffman.code_length_list(freqs, max_bits)) == min(depth, max_bits)
    agree("code_lengths", np.array(freqs), max_bits)


@pytest.mark.parametrize("n", range(2, 8))
def test_every_small_alphabet_equals_reference(n):
    """Every multiset of ``n`` weights from ``1..W``, in three symbol
    orders, at every limit from the tightest feasible one up to ``n``
    (where no limit binds)."""
    top = {2: 12, 3: 10, 4: 8, 5: 6, 6: 5, 7: 4}[n]
    checked = fell_back = 0
    for combo in combinations_with_replacement(range(1, top + 1), n):
        for freqs in {combo, combo[::-1], combo[1:] + combo[:1]}:
            for max_bits in range((n - 1).bit_length(), n):
                agree("code_lengths", np.array(freqs), max_bits)
                checked += 1
                fell_back += _unlimited_depth(list(freqs)) > max_bits
    assert checked and (fell_back or n <= 3)


def test_two_queue_takes_a_leaf_before_a_node_of_equal_weight():
    """Weights 1, 1, 2, 2: leaf-first joins the two 2-leaves (all four
    at depth 2); node-first would give depths 3, 3, 2, 1 at equal cost."""
    assert huffman._huffman_depths([1, 1, 2, 2]) == [2, 2, 2, 2]
    assert agree("code_lengths", np.array([1, 1, 2, 2]), 15)[2] \
        == np.array([2, 2, 2, 2], dtype=np.int32).tobytes()


# -- decode tables ----------------------------------------------------------


def complete_lengths(width: int, n_symbols: int = 40) -> "list[int]":
    """A complete code whose longest length is ``width``: one symbol at
    each length below it, two at ``width``, the rest unused."""
    lengths = [0] * n_symbols
    for sym, bits in enumerate(list(range(1, width)) + [width, width]):
        lengths[n_symbols - 1 - 2 * sym] = bits
    return lengths


#: Code-length lists no decoder may build: empty, over-subscribed at
#: list-built and numpy-built widths, over 16 bits, a hostile u8 length.
BAD_TREES = {"empty": [0, 0, 0], "over-1": [1, 1, 1], "over-2": [1] + [2] * 3,
             "over-12": [1] * 2 + [12] * 5, "17-bit": [1, 17, 17], "200-bit": [3, 200]}


@pytest.mark.parametrize("width", range(1, huffman.MAX_CODE_BITS + 1))
def test_list_and_numpy_tables_equal_reference_at_every_width(width):
    lengths = complete_lengths(width)
    _, complete, max_bits = agree("decoder_table", lengths)
    assert (complete, max_bits) == (True, width)
    assert type(huffman.HuffmanDecoder(lengths).lookup) is (
        tuple if width <= huffman._LIST_TABLE_BITS else memoryview)


#: Any length list, complete, incomplete, over-subscribed or empty, and
#: the codes of histograms with one code removed or not: the same table
#: or the same typed error.
test_decode_table_or_its_error_equals_reference = given_agree("decoder_table")


@pytest.mark.parametrize("lengths", BAD_TREES.values(), ids=BAD_TREES.keys())
def test_bad_trees_raise_the_same_typed_error(lengths):
    assert agree("decoder_table", lengths) is CorruptStreamError
    assert agree("decoder_table", np.array(lengths, dtype=np.uint8)) is CorruptStreamError
