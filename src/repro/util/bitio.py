"""LSB-first bit stream I/O.

DEFLATE (RFC 1951) packs bits starting from the least-significant bit of
each output byte; Huffman codes are written most-significant-code-bit
first, which RFC 1951 expresses by storing codes bit-reversed.  This
module only deals with the raw LSB-first transport; code bit-reversal is
the concern of :mod:`repro.algorithms.huffman`.

The writer offers a numpy-vectorised bulk path
(:meth:`BitWriter.write_code_array`) because per-symbol Python calls are
the dominant cost when emitting a megabyte-scale token stream.  The
vectorized kernel combines each code into a pre-shifted 64-bit lane and
scatters whole *byte* planes with ``np.bitwise_or.at`` —
``ceil((maxlen + 7) / 8)`` passes (at most five for 32-bit codes)
instead of one pass per bit.  Its pack buffer is leased from the
host-side scratch pool (:mod:`repro.util.scratch`), so steady-state
emission does not allocate.  Its byte-identical twin (one
:meth:`BitWriter.write_bits` call per code) lives in
:mod:`repro.algorithms.reference.huffman`.

The reader refills its accumulator eight bytes at a time; decode loops
that cannot afford a method call per symbol (inflate and its tree
header) hoist ``(data, pos, acc, nbits)`` into locals with
:meth:`BitReader.hoist`, repeat the same refill inline, and hand the
state back with :meth:`BitReader.restore`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptStreamError
from repro.util.scratch import get_scratch_pool

__all__ = ["BitWriter", "BitReader", "reverse_bits", "BIT_REVERSE_16"]


def _bit_reverse_16() -> np.ndarray:
    rev = np.arange(1 << 16, dtype=np.uint16)
    for shift, mask in ((1, 0x5555), (2, 0x3333), (4, 0x0F0F), (8, 0x00FF)):
        rev = ((rev >> shift) & mask) | ((rev & mask) << shift)
    return rev


#: ``BIT_REVERSE_16[v]`` is ``v`` with its 16 bits reversed (128 KiB,
#: built once at import); ``BIT_REVERSE_16[v] >> (16 - n)`` reverses the
#: low ``n`` bits of an ``n``-bit value.
BIT_REVERSE_16 = _bit_reverse_16()


def reverse_bits(value: int, nbits: int) -> int:
    """Reverse the low ``nbits`` bits of ``value``.

    Used to convert canonical (MSB-first) Huffman codes into DEFLATE's
    LSB-first wire order.
    """
    out = 0
    for _ in range(nbits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class BitWriter:
    """Accumulates an LSB-first bit stream into a growable byte buffer."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0  # pending bits, LSB = next bit on the wire
        self._nbits = 0

    @property
    def bit_length(self) -> int:
        """Total number of bits written so far (including pending bits)."""
        return len(self._out) * 8 + self._nbits

    def write_bits(self, value: int, nbits: int) -> None:
        """Append the low ``nbits`` bits of ``value``, LSB first."""
        if nbits < 0:
            raise ValueError(f"nbits must be >= 0, got {nbits}")
        if nbits == 0:
            return
        if value >> nbits:
            raise ValueError(f"value 0x{value:x} does not fit in {nbits} bits")
        acc = self._acc | (value << self._nbits)
        total = self._nbits + nbits
        whole = total >> 3
        if whole:
            self._out += (acc & ((1 << (whole << 3)) - 1)).to_bytes(whole, "little")
            acc >>= whole << 3
        self._acc = acc
        self._nbits = total & 7

    def align_to_byte(self) -> None:
        """Pad with zero bits up to the next byte boundary."""
        if self._nbits:
            self._out.append(self._acc & 0xFF)
            self._acc = 0
            self._nbits = 0

    def write_bytes(self, data: bytes | bytearray | memoryview) -> None:
        """Byte-align, then append raw bytes (used for stored blocks)."""
        self.align_to_byte()
        self._out += data

    def write_code_array(self, codes: np.ndarray, lengths: np.ndarray) -> None:
        """Vectorised bulk append of many variable-length codes.

        Parameters
        ----------
        codes:
            Integer array; entry ``i`` holds the bits of code ``i`` already
            in LSB-first wire order.  Bits above ``lengths[i]`` are ignored.
        lengths:
            Bit length of each code; zero-length entries are skipped.
        """
        codes = np.ascontiguousarray(codes, dtype=np.uint32)
        lengths = np.ascontiguousarray(lengths, dtype=np.int64)
        if codes.shape != lengths.shape:
            raise ValueError("codes and lengths must have identical shapes")
        if codes.size == 0:
            return
        total = int(lengths.sum())
        if total == 0:
            return
        # Bit offset of each code relative to the start of the bulk region.
        offsets = np.empty(lengths.size, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(lengths[:-1], out=offsets[1:])

        start = self._nbits  # bulk region starts after the pending bits
        nbytes = (start + total + 7) // 8
        maxlen = int(lengths.max())
        base = offsets + start

        # Byte-plane scatter: each code, pre-shifted into position within
        # its first output byte, occupies at most maxlen + 7 bits of one
        # 64-bit lane — ceil((maxlen + 7) / 8) bitwise_or.at passes total.
        # A zeroed pack buffer comes from the scratch pool (with plane
        # slack so the top, all-zero planes of short codes stay in
        # bounds) instead of a fresh allocation per block.
        live = np.flatnonzero(lengths)
        base = base[live]
        val = (codes[live].astype(np.uint64)
               & ((np.uint64(1) << lengths[live].astype(np.uint64)) - np.uint64(1)))
        val <<= (base & 7).astype(np.uint64)
        byte_idx = base >> 3
        nplanes = (maxlen + 7 + 7) // 8
        pool = get_scratch_pool()
        buf = pool.acquire(nbytes + nplanes)
        try:
            if start:
                buf[0] = self._acc & 0xFF
            for k in range(nplanes):
                plane = ((val >> np.uint64(8 * k)) & np.uint64(0xFF)).astype(np.uint8)
                np.bitwise_or.at(buf, byte_idx + k, plane)

            end_bits = (start + total) % 8
            if end_bits:
                self._out += buf[: nbytes - 1].tobytes()
                self._acc = int(buf[nbytes - 1])
                self._nbits = end_bits
            else:
                self._out += buf[:nbytes].tobytes()
                self._acc = 0
                self._nbits = 0
        finally:
            pool.release(buf)

    def getvalue(self) -> bytes:
        """Return the stream contents, zero-padding any final partial byte."""
        if self._nbits:
            return bytes(self._out) + bytes([self._acc & 0xFF])
        return bytes(self._out)


class BitReader:
    """Reads an LSB-first bit stream produced by :class:`BitWriter`."""

    def __init__(self, data: bytes | bytearray | memoryview) -> None:
        self._data = bytes(data)
        self._pos = 0  # byte cursor
        self._acc = 0
        self._nbits = 0

    @property
    def bits_consumed(self) -> int:
        """Number of bits consumed from the underlying byte stream."""
        return self._pos * 8 - self._nbits

    @property
    def bytes_consumed(self) -> int:
        """Bytes consumed, rounding the current partial byte up."""
        return self._pos - (self._nbits // 8)

    def hoist(self) -> "tuple[bytes, int, int, int]":
        """``(data, pos, acc, nbits)`` for a loop that keeps them in locals."""
        return self._data, self._pos, self._acc, self._nbits

    def restore(self, pos: int, acc: int, nbits: int) -> None:
        """Hand back the state a :meth:`hoist`-ing loop advanced.

        ``nbits < 0`` means the loop consumed zero bits peeked past the
        end of the stream.
        """
        if nbits < 0:
            raise CorruptStreamError("unexpected end of bit stream")
        self._pos, self._acc, self._nbits = pos, acc, nbits

    def _refill(self) -> None:
        chunk = self._data[self._pos : self._pos + 8]
        self._acc |= int.from_bytes(chunk, "little") << self._nbits
        self._pos += len(chunk)
        self._nbits += len(chunk) << 3

    def read_bits(self, nbits: int) -> int:
        """Consume and return ``nbits`` bits (LSB-first)."""
        while self._nbits < nbits:
            if self._pos >= len(self._data):
                raise CorruptStreamError("unexpected end of bit stream")
            self._refill()
        value = self._acc & ((1 << nbits) - 1)
        self._acc >>= nbits
        self._nbits -= nbits
        return value

    def peek_bits(self, nbits: int) -> int:
        """Return up to ``nbits`` bits without consuming them.

        Near the end of the stream fewer bits may remain; the missing high
        bits are returned as zero, matching common inflate implementations
        that over-peek into the lookup table.
        """
        while self._nbits < nbits and self._pos < len(self._data):
            self._refill()
        return self._acc & ((1 << nbits) - 1)

    def skip_bits(self, nbits: int) -> None:
        """Consume ``nbits`` previously peeked bits."""
        if nbits > self._nbits:
            raise CorruptStreamError("skip beyond buffered bits")
        self._acc >>= nbits
        self._nbits -= nbits

    def align_to_byte(self) -> None:
        """Drop bits up to the next byte boundary."""
        drop = self._nbits % 8
        self._acc >>= drop
        self._nbits -= drop

    def read_bytes(self, n: int) -> bytes:
        """Byte-align, then read ``n`` raw bytes."""
        self.align_to_byte()
        # Whole bytes still buffered came from just behind the cursor.
        start = self._pos - (self._nbits >> 3)
        if start + n > len(self._data):
            raise CorruptStreamError("unexpected end of byte stream")
        self._pos = start + n
        self._acc = 0
        self._nbits = 0
        return self._data[start : start + n]
