"""LZ4 block + frame format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.lz4 import (
    Lz4Config,
    lz4_block_compress,
    lz4_block_decompress,
    lz4_compress,
    lz4_decompress,
)
from repro.algorithms.lz4.frame import MAGIC
from repro.errors import ChecksumMismatchError, CorruptStreamError, OutputOverflowError


SAMPLES = [
    b"",
    b"a",
    b"short",
    b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
    b"the quick brown fox jumps over the lazy dog. " * 200,
    np.random.default_rng(0).bytes(4000),
    b"\x00" * 100000,
    bytes(range(256)) * 16,
]


class TestBlock:
    @pytest.mark.parametrize("idx", range(len(SAMPLES)))
    def test_roundtrip(self, idx):
        data = SAMPLES[idx]
        assert lz4_block_decompress(lz4_block_compress(data)) == data

    def test_acceleration_levels(self, text_payload):
        for accel in (1, 4, 16):
            block = lz4_block_compress(text_payload, Lz4Config(acceleration=accel))
            assert lz4_block_decompress(block) == text_payload

    def test_bad_acceleration(self):
        with pytest.raises(ValueError):
            Lz4Config(acceleration=0)

    def test_run_compresses_well(self):
        data = b"z" * 10000
        block = lz4_block_compress(data)
        assert len(block) < 100

    def test_last_five_bytes_are_literals(self):
        # Decode the final sequence: it must be literal-only.
        data = b"abcdefgh" * 50
        block = lz4_block_compress(data)
        assert lz4_block_decompress(block) == data

    def test_zero_offset_rejected(self):
        # token: 1 literal + match; offset 0 is illegal.
        bad = bytes([0x10 | 0x0, ord("x"), 0x00, 0x00])
        with pytest.raises(CorruptStreamError):
            lz4_block_decompress(bad)

    def test_truncated_literal_run(self):
        bad = bytes([0xF0])  # promises >= 15 literals, none present
        with pytest.raises(CorruptStreamError):
            lz4_block_decompress(bad)

    def test_offset_before_start_rejected(self):
        bad = bytes([0x10, ord("x"), 0x05, 0x00])  # offset 5 > output 1
        with pytest.raises(CorruptStreamError):
            lz4_block_decompress(bad)

    def test_output_limit(self):
        data = b"q" * 50000
        block = lz4_block_compress(data)
        with pytest.raises(OutputOverflowError):
            lz4_block_decompress(block, max_output=100)

    @staticmethod
    def _overlap_block(offset: int, match_len: int) -> bytes:
        """``offset`` distinct literals, one match of ``match_len`` at
        that offset, then a literal-only closing sequence."""
        extra = match_len - 4
        block = bytearray([offset << 4 | min(extra, 15)])
        block += bytes(range(1, offset + 1)) + bytes([offset, 0])
        if extra >= 15:
            extra -= 15
            block += b"\xff" * (extra // 255) + bytes([extra % 255])
        return bytes(block) + b"\x30END"

    def test_overlapping_copy_matches_the_per_byte_definition(self):
        """offset < length: each copied byte may be one the copy itself
        just wrote.  The slice-repeat must equal copying byte by byte."""
        for offset in range(1, 9):
            for match_len in range(4, 601):
                expected = bytearray(range(1, offset + 1))
                for _ in range(match_len):
                    expected.append(expected[-offset])
                expected += b"END"
                block = self._overlap_block(offset, match_len)
                assert lz4_block_decompress(block) == expected, (offset, match_len)

    def test_output_limit_inside_an_overlapping_copy(self):
        block = self._overlap_block(3, 600)  # 3 literals + 600 copied + 3
        assert len(lz4_block_decompress(block, max_output=606)) == 606
        for limit in (3, 4, 300, 602, 605):
            with pytest.raises(OutputOverflowError):
                lz4_block_decompress(block, max_output=limit)

    def test_block_cut_after_a_match_is_rejected(self):
        """The last sequence of a block is literal-only, so a block that
        ends right after a match's offset or length bytes was cut: the
        first sequence of this 338-byte input alone decodes to a 320-byte
        prefix of it, and must raise instead."""
        phrase = b"0123456789abcdefghij"
        data = phrase * 16 + b"KLMNOPQRSTUVWXYZ!?"
        block = lz4_block_compress(data)
        literals, match_len, offset = next(_sequences(block))
        assert (len(literals), match_len, offset) == (20, 300, 20)
        first = len(block) - 2 - 18  # closing token, length byte, literals
        assert block[first] == 0xF0
        assert lz4_block_decompress(block) == data
        with pytest.raises(CorruptStreamError, match="ends on a match"):
            lz4_block_decompress(block[:first])
        # A match short enough for the token nibble ends at its offset.
        with pytest.raises(CorruptStreamError, match="ends on a match"):
            lz4_block_decompress(bytes([0x14]) + b"x" + bytes([1, 0]))

    def test_long_match_extension_bytes(self):
        # A >270-byte match exercises the 255-saturated extension path.
        data = b"Lorem ipsum " + b"A" * 2000 + b" dolor sit amet"
        block = lz4_block_compress(data)
        assert lz4_block_decompress(block) == data


class TestFrame:
    @pytest.mark.parametrize("idx", range(len(SAMPLES)))
    def test_roundtrip(self, idx):
        data = SAMPLES[idx]
        assert lz4_decompress(lz4_compress(data)) == data

    def test_magic_number(self, text_payload):
        frame = lz4_compress(text_payload)
        assert struct.unpack_from("<I", frame, 0)[0] == MAGIC

    def test_bad_magic_rejected(self, text_payload):
        frame = bytearray(lz4_compress(text_payload))
        frame[0] ^= 1
        with pytest.raises(CorruptStreamError):
            lz4_decompress(bytes(frame))

    def test_header_checksum_verified(self, text_payload):
        frame = bytearray(lz4_compress(text_payload))
        # HC byte is at offset 4 (magic) + 2 (FLG/BD) + 8 (content size).
        frame[14] ^= 0xFF
        with pytest.raises(ChecksumMismatchError):
            lz4_decompress(bytes(frame))

    def test_content_checksum_verified(self, text_payload):
        frame = bytearray(lz4_compress(text_payload))
        frame[-1] ^= 0xFF
        with pytest.raises(ChecksumMismatchError):
            lz4_decompress(bytes(frame))

    def test_multi_block_frames(self):
        data = (b"block content " * 6000)[: 3 * 65536 + 17]
        frame = lz4_compress(data, block_size_code=4)  # 64 KiB blocks
        assert lz4_decompress(frame) == data

    def test_incompressible_blocks_stored(self):
        rng = np.random.default_rng(5)
        data = rng.bytes(200000)
        frame = lz4_compress(data)
        # Stored-block fallback: bounded expansion.
        assert len(frame) < len(data) + 64
        assert lz4_decompress(frame) == data

    def test_output_limit_covers_stored_blocks(self):
        """Incompressible data travels as stored blocks, which must obey
        ``max_output`` like compressed ones: the declared content size
        is refused up front, and a frame that declares none is refused
        at the block that would pass the limit."""
        from repro.util.xxhash32 import xxh32

        data = np.random.default_rng(6).bytes(5000)
        frame = lz4_compress(data)
        assert len(frame) > len(data)  # stored
        assert lz4_decompress(frame, max_output=5000) == data
        for limit in (0, 100, 4999):
            with pytest.raises(OutputOverflowError):
                lz4_decompress(frame, max_output=limit)

        descriptor = bytes([(1 << 6) | (1 << 5) | (1 << 2), 7 << 4])  # no C.Size
        sizeless = (
            struct.pack("<I", MAGIC) + descriptor
            + bytes([(xxh32(descriptor) >> 8) & 0xFF])
            + struct.pack("<I", 3000 | 0x80000000) + data[:3000]
            + struct.pack("<I", 2000 | 0x80000000) + data[3000:]
            + struct.pack("<II", 0, xxh32(data))
        )
        assert lz4_decompress(sizeless) == data
        assert lz4_decompress(sizeless, max_output=5000) == data
        for limit in (100, 2999, 3000, 4999):
            with pytest.raises(OutputOverflowError):
                lz4_decompress(sizeless, max_output=limit)

    def test_invalid_block_size_code(self):
        with pytest.raises(ValueError):
            lz4_compress(b"x", block_size_code=3)

    def test_truncated_frame(self, text_payload):
        frame = lz4_compress(text_payload)
        with pytest.raises(CorruptStreamError):
            lz4_decompress(frame[:20])

    def test_reserved_flg_bits_rejected(self):
        frame = bytearray(lz4_compress(b"data"))
        frame[4] |= 0x03
        with pytest.raises(CorruptStreamError):
            lz4_decompress(bytes(frame))


def _frame_with_block_checksums(blocks, content_checksum):
    """A frame as another encoder may write it: B.Checksum set, one
    ``(stored, raw)`` pair per block, each followed by xxh32 of the
    payload as it sits in the frame.  Returns the frame, its content and
    each payload's ``(start, end)``; the block checksum is the four
    bytes at ``end``."""
    from repro.util.xxhash32 import xxh32

    flg = (1 << 6) | (1 << 5) | (1 << 4) | (content_checksum << 2)
    descriptor = bytes([flg, 7 << 4])
    out = struct.pack("<I", MAGIC) + descriptor
    out += bytes([(xxh32(descriptor) >> 8) & 0xFF])
    content, spans = b"", []
    for stored, raw in blocks:
        payload = raw if stored else lz4_block_compress(raw)
        out += struct.pack("<I", len(payload) | (stored << 31))
        spans.append((len(out), len(out) + len(payload)))
        out += payload + struct.pack("<I", xxh32(payload))
        content += raw
    out += struct.pack("<I", 0)
    if content_checksum:
        out += struct.pack("<I", xxh32(content))
    return out, content, spans


@pytest.mark.parametrize("content_checksum", [0, 1])
class TestBlockChecksum:
    """FLG bit 4: every block carries xxh32 of its payload.  The encoder
    here never sets it, so these frames are built by hand: one
    compressed block, one stored."""

    BLOCKS = [(0, b"block checksums guard each block " * 40),
              (1, np.random.default_rng(9).bytes(300))]

    def test_valid_checksums_accepted(self, content_checksum):
        frame, content, _ = _frame_with_block_checksums(self.BLOCKS, content_checksum)
        assert lz4_decompress(frame) == content

    def test_flipped_payload_bit_detected(self, content_checksum):
        frame, _, spans = _frame_with_block_checksums(self.BLOCKS, content_checksum)
        for start, end in spans:
            broken = bytearray(frame)
            broken[(start + end) // 2] ^= 0x04
            with pytest.raises(ChecksumMismatchError, match="LZ4 block"):
                lz4_decompress(bytes(broken))

    def test_flipped_checksum_bit_detected(self, content_checksum):
        frame, _, spans = _frame_with_block_checksums(self.BLOCKS, content_checksum)
        for _, end in spans:
            broken = bytearray(frame)
            broken[end + 3] ^= 0x80
            with pytest.raises(ChecksumMismatchError, match="LZ4 block"):
                lz4_decompress(bytes(broken))

    def test_truncated_checksum_rejected(self, content_checksum):
        frame, _, spans = _frame_with_block_checksums(self.BLOCKS, content_checksum)
        for _, end in spans:
            for kept in range(4):
                with pytest.raises(CorruptStreamError, match="truncated block checksum"):
                    lz4_decompress(frame[: end + kept])


@given(st.binary(max_size=4000))
@settings(max_examples=60, deadline=None)
def test_property_block_roundtrip(blob):
    assert lz4_block_decompress(lz4_block_compress(blob)) == blob


@given(st.binary(max_size=4000))
@settings(max_examples=40, deadline=None)
def test_property_frame_roundtrip(blob):
    assert lz4_decompress(lz4_compress(blob)) == blob


@given(st.lists(st.sampled_from(b"abcd"), min_size=0, max_size=3000))
@settings(max_examples=30, deadline=None)
def test_property_low_entropy_block(symbols):
    blob = bytes(symbols)
    assert lz4_block_decompress(lz4_block_compress(blob)) == blob


def test_compressing_one_mebibyte_of_xml_stays_small():
    """The matcher's per-position tables are typed arrays (a hash and an
    8-byte word, 10 bytes a position), not lists of ints: 1 MiB of xml
    peaks at ~18 MB traced (49.8 MB with the hashes in a list)."""
    import tracemalloc

    from repro.datasets import get_dataset

    data = bytes(get_dataset("silesia/xml").generate(1 << 20))
    tracemalloc.start()
    try:
        frame = lz4_compress(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30e6, peak
    assert lz4_decompress(frame) == data


def _sequences(block: bytes):
    """Parse a block into ``(literals, match_len, offset)`` sequences;
    the final, literal-only one has ``match_len == 0``."""
    i = 0
    while i < len(block):
        token = block[i]
        i += 1
        lit_len = token >> 4
        if lit_len == 15:
            while block[i] == 255:
                lit_len += 255
                i += 1
            lit_len += block[i]
            i += 1
        literals = block[i : i + lit_len]
        i += lit_len
        if i == len(block):
            yield literals, 0, 0
            return
        offset = int.from_bytes(block[i : i + 2], "little")
        i += 2
        match_len = (token & 0x0F) + 4
        if token & 0x0F == 15:
            while block[i] == 255:
                match_len += 255
                i += 1
            match_len += block[i]
            i += 1
        yield literals, match_len, offset


def test_inlined_short_sequences_match_the_general_emitter():
    """The compressor writes a sequence whose two lengths fit the token
    nibbles without calling ``_emit_sequence``.  Re-emitting every parsed
    sequence through ``_emit_sequence`` must reproduce the block, with
    literal runs of 13..16 and matches of 17..20 bytes — both sides of
    both nibble limits — present in it."""
    from repro.algorithms.lz4.block import _emit_sequence

    rng = np.random.default_rng(11)
    phrase = rng.bytes(41)
    data = bytearray(phrase)
    for lit_len in (0, 1, 13, 14, 15, 16, 40):
        for match_len in (4, 5, 17, 18, 19, 20, 40):
            data += bytes(rng.integers(0, 256, lit_len, dtype=np.uint8))
            data += phrase[:match_len] + bytes([phrase[match_len] ^ 0xFF])
    data = bytes(data + rng.bytes(16))
    block = lz4_block_compress(data)
    assert lz4_block_decompress(block) == data
    rebuilt = bytearray()
    lit_lens, match_lens = set(), set()
    for literals, match_len, offset in _sequences(block):
        _emit_sequence(rebuilt, literals, match_len, offset)
        lit_lens.add(len(literals))
        match_lens.add(match_len)
    assert bytes(rebuilt) == block
    assert {14, 15, 16} <= lit_lens and {18, 19, 20} <= match_lens
