"""Canonical Huffman coding: package-merge, code assignment, decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import huffman
from repro.algorithms.reference.sz3 import decode_run
from repro.errors import CorruptStreamError
from repro.util.bitio import BitReader, BitWriter


def entropy_cost(freqs: np.ndarray, lengths: np.ndarray) -> int:
    return int((freqs * lengths).sum())


class TestCodeLengths:
    def test_empty_alphabet(self):
        lengths = huffman.code_lengths(np.zeros(10, dtype=np.int64), 15)
        assert (lengths == 0).all()

    def test_single_symbol_gets_one_bit(self):
        freqs = np.zeros(5, dtype=np.int64)
        freqs[3] = 100
        lengths = huffman.code_lengths(freqs, 15)
        assert lengths[3] == 1
        assert lengths.sum() == 1

    def test_two_symbols(self):
        lengths = huffman.code_lengths(np.array([5, 3]), 15)
        assert list(lengths) == [1, 1]

    def test_kraft_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            freqs = rng.integers(0, 1000, size=64)
            lengths = huffman.code_lengths(freqs, 15)
            used = lengths[lengths > 0]
            assert (2.0 ** -used.astype(float)).sum() <= 1.0 + 1e-12

    def test_respects_max_bits(self):
        # Fibonacci-ish frequencies force deep unbounded trees.
        freqs = np.array([1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233])
        for limit in (4, 5, 7, 15):
            lengths = huffman.code_lengths(freqs, limit)
            assert lengths.max() <= limit

    def test_matches_unbounded_huffman_cost_when_unconstrained(self):
        # With a generous limit, package-merge equals classic Huffman cost.
        import heapq

        rng = np.random.default_rng(1)
        for _ in range(10):
            freqs = rng.integers(1, 500, size=30)
            heap = [(int(f), i) for i, f in enumerate(freqs)]
            heapq.heapify(heap)
            # classic Huffman total cost via merging
            total = 0
            while len(heap) > 1:
                a, _ = heapq.heappop(heap)
                b, _ = heapq.heappop(heap)
                total += a + b
                heapq.heappush(heap, (a + b, -1))
            lengths = huffman.code_lengths(freqs, 31)
            assert entropy_cost(freqs, lengths) == total

    def test_limited_cost_optimal_for_small_case(self):
        # Exhaustive check: the package-merge cost is minimal among all
        # valid length assignments for a tiny alphabet and tight limit.
        from itertools import product

        freqs = np.array([40, 30, 20, 9, 1])
        limit = 3
        got = entropy_cost(freqs, huffman.code_lengths(freqs, limit))
        best = None
        for combo in product(range(1, limit + 1), repeat=5):
            if sum(2.0**-l for l in combo) <= 1.0 + 1e-12:
                cost = sum(f * l for f, l in zip(freqs, combo))
                best = cost if best is None else min(best, cost)
        assert got == best

    def test_too_many_symbols_for_limit(self):
        with pytest.raises(ValueError):
            huffman.code_lengths(np.ones(9, dtype=np.int64), 3)


class TestCanonicalCodes:
    def test_rfc1951_worked_example(self):
        # RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) ->
        # codes 010,011,100,101,110,00,1110,1111.
        lengths = np.array([3, 3, 3, 3, 3, 2, 4, 4])
        codes = huffman.canonical_codes(lengths)
        assert list(codes) == [0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]

    def test_empty(self):
        assert huffman.canonical_codes(np.zeros(0, dtype=np.int32)).size == 0

    def test_prefix_free(self):
        lengths = huffman.code_lengths(np.arange(1, 20), 15)
        codes = huffman.canonical_codes(lengths)
        entries = [
            (format(int(c), f"0{int(l)}b"))
            for c, l in zip(codes, lengths)
            if l > 0
        ]
        for i, a in enumerate(entries):
            for j, b in enumerate(entries):
                if i != j:
                    assert not b.startswith(a)

    def test_oversubscribed_rejected(self):
        with pytest.raises(CorruptStreamError):
            huffman.canonical_codes(np.array([1, 1, 1]))


class TestLsbCodes:
    def test_reversal_consistency(self):
        lengths = np.array([3, 3, 3, 3, 3, 2, 4, 4])
        msb = huffman.canonical_codes(lengths)
        lsb = huffman.lsb_codes(lengths)
        from repro.util.bitio import reverse_bits

        for m, l, nbits in zip(msb, lsb, lengths):
            assert reverse_bits(int(m), int(nbits)) == int(l)

    def test_zero_lengths_are_zero(self):
        lengths = np.array([0, 2, 0, 2, 1])
        lsb = huffman.lsb_codes(lengths)
        assert lsb[0] == 0 and lsb[2] == 0


class TestHuffmanDecoder:
    def _roundtrip(self, freqs, symbols):
        lengths = huffman.code_lengths(freqs, 15)
        codes = huffman.lsb_codes(lengths)
        w = BitWriter()
        for sym in symbols:
            w.write_bits(int(codes[sym]), int(lengths[sym]))
        decoder = huffman.HuffmanDecoder(lengths)
        r = BitReader(w.getvalue())
        return [decoder.decode(r) for _ in symbols]

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        freqs = rng.integers(1, 100, size=40)
        symbols = rng.integers(0, 40, size=500).tolist()
        assert self._roundtrip(freqs, symbols) == symbols

    def test_single_symbol_code(self):
        freqs = np.zeros(4, dtype=np.int64)
        freqs[2] = 7
        assert self._roundtrip(freqs, [2, 2, 2]) == [2, 2, 2]

    def test_empty_tree_rejected(self):
        with pytest.raises(CorruptStreamError):
            huffman.HuffmanDecoder(np.zeros(8, dtype=np.int32))

    def test_alphabet_cap(self):
        with pytest.raises(ValueError):
            huffman.HuffmanDecoder(np.ones(513, dtype=np.int32))

    def test_invalid_code_detected(self):
        # Incomplete code (single symbol, length 2): pattern 0b11 never
        # assigned, so peeking it must raise.
        lengths = np.zeros(3, dtype=np.int32)
        lengths[0] = 2
        decoder = huffman.HuffmanDecoder(lengths)
        assert not decoder.is_complete
        r = BitReader(bytes([0b11]))
        with pytest.raises(CorruptStreamError):
            decoder.decode(r)

    def test_is_complete_for_full_tree(self):
        lengths = huffman.code_lengths(np.array([1, 1, 1, 1]), 15)
        assert huffman.HuffmanDecoder(lengths).is_complete


@given(
    st.lists(st.integers(min_value=0, max_value=300), min_size=2, max_size=80).filter(
        lambda fs: sum(1 for f in fs if f > 0) >= 2
    )
)
@settings(max_examples=60)
def test_property_lengths_sorted_by_frequency(freqs):
    """More frequent symbols never get longer codes."""
    freqs = np.asarray(freqs, dtype=np.int64)
    lengths = huffman.code_lengths(freqs, 15)
    used = np.flatnonzero(freqs > 0)
    for i in used:
        for j in used:
            if freqs[i] > freqs[j]:
                assert lengths[i] <= lengths[j]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_property_encode_decode_roundtrip(data):
    n_symbols = data.draw(st.integers(2, 60))
    freqs = np.array(
        data.draw(
            st.lists(
                st.integers(0, 50), min_size=n_symbols, max_size=n_symbols
            )
        ),
        dtype=np.int64,
    )
    if (freqs > 0).sum() < 1:
        freqs[0] = 1
    lengths = huffman.code_lengths(freqs, 15)
    codes = huffman.lsb_codes(lengths)
    usable = np.flatnonzero(lengths > 0)
    symbols = data.draw(
        st.lists(st.sampled_from(list(usable)), max_size=100)
    )
    w = BitWriter()
    for sym in symbols:
        w.write_bits(int(codes[sym]), int(lengths[sym]))
    decoder = huffman.HuffmanDecoder(lengths)
    r = BitReader(w.getvalue())
    assert [decoder.decode(r) for _ in symbols] == symbols


# -- production kernels vs the retained reference twins ----------------------
#
# ``repro.algorithms.reference`` keeps the pre-hoist implementations;
# the fast ones must reproduce them exactly — the same arrays, not merely
# the same cost — because every compressed stream is pinned byte for byte.

from repro.algorithms.reference import huffman as reference  # noqa: E402


def _fibonacci(count: int) -> "list[int]":
    out = [1, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


@st.composite
def histograms(draw):
    """(freqs, max_bits): 1..286 used symbols scattered over an alphabet,
    from weight families chosen to hit ties and to make the limit bind."""
    max_bits = draw(st.sampled_from([7, 15]))
    n_used = draw(st.integers(1, min(286, 1 << max_bits)))
    family = draw(st.sampled_from(
        ["random", "few_values", "fibonacci", "equal", "powers_of_two"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "random":
        weights = rng.integers(1, 5000, n_used)
    elif family == "few_values":        # ties everywhere
        weights = rng.integers(1, 4, n_used)
    elif family == "fibonacci":         # deepest possible unbounded tree
        weights = np.array(_fibonacci(80) * 4)[:n_used]
    elif family == "equal":
        weights = np.full(n_used, int(rng.integers(1, 100)))
    else:
        weights = 1 << rng.integers(0, 30, n_used)
    weights = rng.permutation(weights)
    freqs = np.zeros(draw(st.integers(n_used, 286)), dtype=np.int64)
    freqs[rng.choice(freqs.size, n_used, replace=False)] = weights
    return freqs, max_bits


@given(histograms())
@settings(max_examples=300, deadline=None)
def test_code_lengths_equal_reference(case):
    freqs, max_bits = case
    lengths = huffman.code_lengths(freqs, max_bits)
    assert lengths.dtype == np.int32
    assert np.array_equal(lengths, reference.code_lengths(freqs, max_bits))
    used = lengths[lengths > 0].astype(np.int64)
    assert ((freqs > 0) == (lengths > 0)).all()
    assert lengths.max() <= max_bits
    if used.size > 1:
        assert (1 << (max_bits - used)).sum() <= 1 << max_bits  # Kraft


@pytest.mark.parametrize("max_bits, count", [(15, 17), (15, 40), (7, 9), (7, 19)])
def test_fibonacci_weights_bind_the_limit(max_bits, count):
    freqs = np.array(_fibonacci(count), dtype=np.int64)
    lengths = huffman.code_lengths(freqs, max_bits)
    assert lengths.max() == max_bits  # an unbounded tree would be deeper
    assert np.array_equal(lengths, reference.code_lengths(freqs, max_bits))


@given(histograms())
@settings(max_examples=100, deadline=None)
def test_lsb_codes_equal_per_symbol_reversal(case):
    freqs, max_bits = case
    lengths = huffman.code_lengths(freqs, max_bits)
    codes = huffman.lsb_codes(lengths)
    assert codes.dtype == np.uint32
    assert np.array_equal(codes, reference.lsb_codes(lengths))


def test_lsb_codes_rejects_lengths_beyond_reversal_table():
    with pytest.raises(ValueError):
        huffman.lsb_codes(np.array([1, 17, 17]))


@given(histograms(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_decoder_table_equals_reference(case, drop_one):
    freqs, max_bits = case
    lengths = huffman.code_lengths(freqs, max_bits)
    if drop_one and np.count_nonzero(lengths) > 1:
        # Remove a code: the tree becomes incomplete, its slots invalid.
        lengths[np.flatnonzero(lengths)[0]] = 0
    decoder = huffman.HuffmanDecoder(lengths)
    expected = reference.decoder_table(lengths)
    assert decoder.max_bits == lengths.max()
    assert np.array_equal(decoder.table, expected)
    assert list(decoder.lookup) == expected.tolist()
    assert decoder.is_complete == bool((expected != 0).all())


def test_decoder_table_single_symbol_code():
    lengths = np.zeros(30, dtype=np.int32)
    lengths[7] = 1
    decoder = huffman.HuffmanDecoder(lengths)
    assert decoder.table.tolist() == [(1 << 9) | 7, 0]
    assert np.array_equal(decoder.table, reference.decoder_table(lengths))
    assert not decoder.is_complete


def test_decoder_rejects_oversubscribed_and_overlong_codes():
    with pytest.raises(CorruptStreamError):
        huffman.HuffmanDecoder(np.array([1, 1, 1]))
    with pytest.raises(CorruptStreamError):
        huffman.HuffmanDecoder(np.array([1, 200]))  # hostile u8 length


class TestDecodeRun:
    """The symbol run of the SZ3 residual decoder's twin."""

    def _stream(self, lengths, symbols, tail_bits=0):
        codes = huffman.lsb_codes(lengths)
        w = BitWriter()
        for sym in symbols:
            w.write_bits(int(codes[sym]), int(lengths[sym]))
        w.write_bits((1 << tail_bits) - 1, tail_bits)
        return w.getvalue()

    def test_stops_at_first_symbol_at_or_above_stop(self):
        lengths = huffman.code_lengths(np.arange(1, 21), 15)
        symbols = [3, 4, 15, 0, 17, 2, 2]
        reader = BitReader(self._stream(lengths, symbols, tail_bits=5))
        decoder = huffman.HuffmanDecoder(lengths)
        out: "list[int]" = []
        assert decode_run(decoder, reader, out, 100, stop=16) == 17
        assert out == [3, 4, 15, 0]
        # The reader sits right behind the stop symbol.
        assert decode_run(decoder, reader, out, 2, stop=16) == -1
        assert out == [3, 4, 15, 0, 2, 2]
        assert reader.read_bits(5) == 0b11111

    def test_matches_symbol_at_a_time_decode(self):
        rng = np.random.default_rng(5)
        lengths = huffman.code_lengths(rng.integers(0, 50, 200), 15)
        usable = np.flatnonzero(lengths)
        symbols = rng.choice(usable, 3000).tolist()
        data = self._stream(lengths, symbols)
        decoder = huffman.HuffmanDecoder(lengths)
        out = bytearray()
        assert decode_run(
            decoder, BitReader(data), out, len(symbols), stop=512) == -1
        reader = BitReader(data)
        assert list(out) == [decoder.decode(reader) for _ in symbols] == symbols

    def test_truncated_stream_raises_instead_of_reading_zeros(self):
        # Symbol 0 gets the all-zero code, so a decoder that treated the
        # bits past the end as data would "decode" it forever.
        lengths = np.array([1, 2, 2], dtype=np.int32)
        decoder = huffman.HuffmanDecoder(lengths)
        data = self._stream(lengths, [1, 2, 1, 2])  # exactly one byte
        with pytest.raises(CorruptStreamError):
            decode_run(decoder, BitReader(data), [], 5, stop=512)

    def test_invalid_code_raises(self):
        decoder = huffman.HuffmanDecoder(np.array([2, 0, 0], dtype=np.int32))
        with pytest.raises(CorruptStreamError):
            decode_run(decoder, BitReader(b"\xff"), [], 1, stop=512)
