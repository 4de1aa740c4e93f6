"""The small-block Huffman builders against their reference twins.

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
from hypothesis import strategies as st

from repro.algorithms import huffman
from repro.algorithms.reference import huffman as reference
from repro.errors import CorruptStreamError


def _unlimited_depth(freqs: "list[int]") -> int:
    leaves = sorted(f for f in freqs if f)
    return max(huffman._huffman_depths(leaves)) if len(leaves) > 1 else len(leaves)


@st.composite
def tied_histograms(draw):
    """(freqs, max_bits): few distinct weights (ties everywhere), or a
    powers-of-two chain ``1, 1, 2, 4, ...`` whose unlimited depth is
    ``max_bits + offset``, padded with tied weights."""
    max_bits = draw(st.sampled_from([7, 15]))
    if draw(st.booleans()):
        n_used = draw(st.integers(2, min(286, 1 << max_bits)))
        weights = draw(st.lists(st.sampled_from([1, 2, 3, 4, 8]),
                                min_size=n_used, max_size=n_used))
    else:
        depth = max(2, max_bits + draw(st.integers(-2, 2)))
        weights = [1] + [1 << k for k in range(depth)]
        weights += [draw(st.sampled_from([1, 2, 1 << depth]))] * draw(st.integers(0, 6))
    order = draw(st.permutations(range(len(weights))))
    size = len(weights) + draw(st.integers(0, 40))
    freqs = [0] * size
    for slot, weight in zip(order, weights):
        freqs[slot] = weight
    return freqs, max_bits


@given(tied_histograms())
@settings(max_examples=400, deadline=None)
def test_two_queue_lengths_equal_reference(case):
    freqs, max_bits = case
    lengths = huffman.code_length_list(freqs, max_bits)
    assert lengths == reference.code_lengths(np.array(freqs), max_bits).tolist()


@pytest.mark.parametrize("max_bits", [7, 15])
@pytest.mark.parametrize("offset", [-1, 0, 1, 2])
def test_powers_of_two_chain_either_side_of_the_limit(max_bits, offset):
    """``1, 1, 2, 4, ..., 2**(d - 1)`` has unlimited depth ``d``: at or
    below the limit the two-queue code is returned, above it the
    package-merge fallback runs; both equal the twin."""
    depth = max_bits + offset
    freqs = [1] + [1 << k for k in range(depth)]
    assert _unlimited_depth(freqs) == depth
    lengths = huffman.code_length_list(freqs, max_bits)
    assert max(lengths) == min(depth, max_bits)
    assert lengths == reference.code_lengths(np.array(freqs), max_bits).tolist()


@pytest.mark.parametrize("n", range(2, 8))
def test_every_small_alphabet_equals_reference(n):
    """Every multiset of ``n`` weights from ``1..W``, in three symbol
    orders, at every limit from the tightest feasible one up to ``n``
    (where no limit binds)."""
    top = {2: 12, 3: 10, 4: 8, 5: 6, 6: 5, 7: 4}[n]
    checked = fell_back = 0
    for combo in combinations_with_replacement(range(1, top + 1), n):
        for freqs in {combo, combo[::-1], combo[1:] + combo[:1]}:
            freqs = list(freqs)
            for max_bits in range((n - 1).bit_length(), n):
                got = huffman.code_length_list(freqs, max_bits)
                assert got == reference.code_lengths(np.array(freqs), max_bits).tolist()
                checked += 1
                fell_back += _unlimited_depth(freqs) > max_bits
    assert checked and (fell_back or n <= 3)


def test_two_queue_takes_a_leaf_before_a_node_of_equal_weight():
    """Weights 1, 1, 2, 2: leaf-first joins the two 2-leaves (all four
    at depth 2); node-first would give depths 3, 3, 2, 1 at equal cost."""
    assert huffman._huffman_depths([1, 1, 2, 2]) == [2, 2, 2, 2]
    assert reference.code_lengths(np.array([1, 1, 2, 2]), 15).tolist() == [2, 2, 2, 2]


# -- decode tables ----------------------------------------------------------


def _complete_lengths(width: int, n_symbols: int) -> "list[int]":
    """A complete code whose longest length is ``width``: one symbol at
    each length below it, two at ``width``, the rest unused."""
    lengths = [0] * n_symbols
    for sym, bits in enumerate(list(range(1, width)) + [width, width]):
        lengths[n_symbols - 1 - 2 * sym] = bits
    return lengths


@pytest.mark.parametrize("width", range(1, huffman.MAX_CODE_BITS + 1))
def test_list_and_numpy_tables_equal_reference_at_every_width(width):
    lengths = _complete_lengths(width, 40)
    decoder = huffman.HuffmanDecoder(lengths)
    expected = reference.decoder_table(np.array(lengths))
    assert decoder.max_bits == width
    assert decoder.is_complete
    assert type(decoder.lookup) is (
        tuple if width <= huffman._LIST_TABLE_BITS else memoryview)
    assert list(decoder.lookup) == expected.tolist()
    assert np.array_equal(decoder.table, expected)


@given(st.lists(st.integers(0, 9), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_decode_table_or_its_error_equals_reference(lengths):
    """Any length list, complete, incomplete, over-subscribed or empty:
    the same table or the same typed error."""
    try:
        expected = reference.decoder_table(np.array(lengths)).tolist()
    except CorruptStreamError:
        with pytest.raises(CorruptStreamError):
            huffman.HuffmanDecoder(lengths)
        return
    assert list(huffman.HuffmanDecoder(lengths).lookup) == expected


@pytest.mark.parametrize("lengths", [
    [0, 0, 0],                     # empty
    [1, 1, 1],                     # over-subscribed, list-built width
    [1] + [2] * 3,                 # over-subscribed at the last length
    [1] * 2 + [12] * 5,            # over-subscribed, numpy-built width
    [1, 17, 17],                   # over 16 bits
    [3, 200],                      # a hostile u8 length
], ids=["empty", "over-1", "over-2", "over-12", "17-bit", "200-bit"])
def test_bad_trees_raise_the_same_typed_error(lengths):
    with pytest.raises(CorruptStreamError):
        reference.decoder_table(np.array(lengths))
    with pytest.raises(CorruptStreamError):
        huffman.HuffmanDecoder(lengths)
    with pytest.raises(CorruptStreamError):
        huffman.HuffmanDecoder(np.array(lengths, dtype=np.uint8))
