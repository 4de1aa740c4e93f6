"""Tests for LSB-first bit I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptStreamError
from repro.util.bitio import BIT_REVERSE_16, BitReader, BitWriter, reverse_bits


class TestReverseBits:
    def test_single_bit(self):
        assert reverse_bits(1, 1) == 1
        assert reverse_bits(0, 1) == 0

    def test_known_patterns(self):
        assert reverse_bits(0b110, 3) == 0b011
        assert reverse_bits(0b10000000, 8) == 0b00000001
        assert reverse_bits(0b1011, 4) == 0b1101

    def test_involution(self):
        for value in range(256):
            assert reverse_bits(reverse_bits(value, 8), 8) == value


    def test_reversal_table_matches_every_width(self):
        assert BIT_REVERSE_16.dtype == np.uint16 and BIT_REVERSE_16.size == 1 << 16
        for value in range(1 << 16):
            assert BIT_REVERSE_16[value] == reverse_bits(value, 16)
        rng = np.random.default_rng(3)
        for nbits in range(1, 17):
            for value in rng.integers(0, 1 << nbits, 50).tolist():
                assert BIT_REVERSE_16[value] >> (16 - nbits) == reverse_bits(value, nbits)


class TestBitWriter:
    def test_one_wide_field_equals_its_parts(self):
        """A whole block header goes out as one multi-hundred-bit field."""
        fields = [(5, 3), (0x1FFF, 13), (0, 2), (0xABCDE, 20), (1, 1), (77, 7)] * 9
        parts, whole = BitWriter(), BitWriter()
        parts.write_bits(1, 1)
        whole.write_bits(1, 1)
        value = nbits = 0
        for field, width in fields:
            parts.write_bits(field, width)
            value |= field << nbits
            nbits += width
        whole.write_bits(value, nbits)
        assert whole.bit_length == parts.bit_length == 1 + nbits
        assert whole.getvalue() == parts.getvalue()

    def test_empty(self):
        assert BitWriter().getvalue() == b""

    def test_single_byte_lsb_order(self):
        w = BitWriter()
        w.write_bits(0b1, 1)
        w.write_bits(0b0, 1)
        w.write_bits(0b1, 1)
        # bits fill from the LSB: 0b...101
        assert w.getvalue() == bytes([0b101])

    def test_cross_byte_value(self):
        w = BitWriter()
        w.write_bits(0xABC, 12)
        data = w.getvalue()
        assert data[0] == 0xBC
        assert data[1] == 0x0A

    def test_value_too_wide_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_bits(0b100, 2)

    def test_negative_nbits_rejected(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(0, -1)

    def test_zero_bits_is_noop(self):
        w = BitWriter()
        w.write_bits(0, 0)
        assert w.getvalue() == b""
        assert w.bit_length == 0

    def test_align_pads_with_zeros(self):
        w = BitWriter()
        w.write_bits(0b1, 1)
        w.align_to_byte()
        assert w.getvalue() == bytes([0b1])
        assert w.bit_length == 8

    def test_write_bytes_aligns_first(self):
        w = BitWriter()
        w.write_bits(0b11, 2)
        w.write_bytes(b"\xaa")
        assert w.getvalue() == bytes([0b11, 0xAA])

    def test_bit_length_tracks_pending(self):
        w = BitWriter()
        w.write_bits(0b111, 3)
        assert w.bit_length == 3
        w.write_bits(0x1F, 5)
        assert w.bit_length == 8


class TestWriteCodeArray:
    def test_matches_scalar_writes(self):
        rng = np.random.default_rng(3)
        lengths = rng.integers(0, 16, size=500).astype(np.int64)
        codes = np.array(
            [rng.integers(0, 1 << l) if l else 0 for l in lengths], dtype=np.uint32
        )
        bulk = BitWriter()
        bulk.write_bits(0b10, 2)  # unaligned prefix
        bulk.write_code_array(codes, lengths)
        scalar = BitWriter()
        scalar.write_bits(0b10, 2)
        for c, l in zip(codes, lengths):
            scalar.write_bits(int(c), int(l))
        assert bulk.getvalue() == scalar.getvalue()
        assert bulk.bit_length == scalar.bit_length

    def test_empty_array(self):
        w = BitWriter()
        w.write_code_array(np.zeros(0, np.uint32), np.zeros(0, np.int64))
        assert w.getvalue() == b""

    def test_all_zero_lengths(self):
        w = BitWriter()
        w.write_code_array(np.zeros(5, np.uint32), np.zeros(5, np.int64))
        assert w.getvalue() == b""

    def test_shape_mismatch_rejected(self):
        w = BitWriter()
        with pytest.raises(ValueError):
            w.write_code_array(np.zeros(3, np.uint32), np.zeros(4, np.int64))

    def test_32_bit_codes(self):
        w = BitWriter()
        w.write_code_array(
            np.array([0xDEADBEEF], dtype=np.uint32), np.array([32], dtype=np.int64)
        )
        r = BitReader(w.getvalue())
        assert r.read_bits(32) == 0xDEADBEEF


class TestBitReader:
    def test_roundtrip_mixed(self):
        w = BitWriter()
        fields = [(0b101, 3), (0xFF, 8), (0, 1), (0x3FFF, 14), (1, 1)]
        for value, nbits in fields:
            w.write_bits(value, nbits)
        r = BitReader(w.getvalue())
        for value, nbits in fields:
            assert r.read_bits(nbits) == value

    def test_peek_does_not_consume(self):
        r = BitReader(bytes([0b10110101]))
        assert r.peek_bits(4) == 0b0101
        assert r.peek_bits(4) == 0b0101
        assert r.read_bits(4) == 0b0101
        assert r.read_bits(4) == 0b1011

    def test_peek_beyond_end_zero_fills(self):
        r = BitReader(bytes([0xFF]))
        assert r.peek_bits(16) == 0x00FF

    def test_read_beyond_end_raises(self):
        r = BitReader(b"")
        with pytest.raises(CorruptStreamError):
            r.read_bits(1)

    def test_skip_more_than_buffered_raises(self):
        r = BitReader(bytes([0xFF]))
        r.peek_bits(4)
        with pytest.raises(CorruptStreamError):
            r.skip_bits(20)

    def test_align_and_read_bytes(self):
        w = BitWriter()
        w.write_bits(0b1, 1)
        w.write_bytes(b"hello")
        r = BitReader(w.getvalue())
        assert r.read_bits(1) == 1
        assert r.read_bytes(5) == b"hello"

    def test_read_bytes_from_buffered_bits(self):
        r = BitReader(b"abcd")
        r.peek_bits(16)  # buffers two bytes
        assert r.read_bytes(3) == b"abc"
        assert r.read_bytes(1) == b"d"

    def test_read_bytes_beyond_end_raises(self):
        r = BitReader(b"ab")
        with pytest.raises(CorruptStreamError):
            r.read_bytes(3)

    def test_hoisted_state_round_trips(self):
        data = bytes(range(1, 40))
        r = BitReader(data)
        assert r.read_bits(11) == int.from_bytes(data, "little") & 0x7FF
        buf, pos, acc, nbits = r.hoist()
        assert buf == data and pos * 8 - nbits == 11
        # A loop that consumed 5 more bits from its local copy:
        r.restore(pos, acc >> 5, nbits - 5)
        assert r.bits_consumed == 16
        assert r.read_bytes(3) == data[2:5]

    def test_restore_rejects_bits_read_past_the_end(self):
        r = BitReader(b"\x01")
        _buf, pos, acc, nbits = r.hoist()
        with pytest.raises(CorruptStreamError):
            r.restore(pos, acc, nbits - 1)

    def test_read_bytes_after_a_wide_refill(self):
        data = bytes(range(50))
        r = BitReader(data)
        assert r.read_bits(3) == 0  # buffers eight bytes, consumes 3 bits
        assert r.read_bytes(20) == data[1:21]
        assert r.read_bits(8) == 21
        assert r.bytes_consumed == 22

    def test_bits_consumed(self):
        r = BitReader(bytes([0xFF, 0xFF]))
        r.read_bits(3)
        assert r.bits_consumed == 3
        r.read_bits(8)
        assert r.bits_consumed == 11


@given(
    st.lists(
        st.integers(min_value=0, max_value=24).flatmap(
            lambda n: st.tuples(st.integers(0, (1 << n) - 1 if n else 0), st.just(n))
        ),
        max_size=200,
    )
)
@settings(max_examples=60)
def test_property_writer_reader_roundtrip(fields):
    w = BitWriter()
    for value, nbits in fields:
        w.write_bits(value, nbits)
    r = BitReader(w.getvalue())
    for value, nbits in fields:
        assert r.read_bits(nbits) == value
