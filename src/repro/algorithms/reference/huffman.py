"""Reference twins of the Huffman/inflate kernels (test and gate oracle).

These are the implementations :mod:`repro.algorithms.huffman`,
:class:`~repro.util.bitio.BitWriter` and
:mod:`repro.algorithms.deflate.decompress` had before they were
vectorized or had their per-block fixed cost hoisted (for the
small-block packer, which had no slow predecessor, the obvious
version), kept obvious rather than fast.  The property tests require
the production kernels to equal these *array for array* and byte for
byte, and the BENCH_PR8 report (``repro.bench.regress``) times the two
interleaved to gate the speed-up as a ratio.

* :func:`code_lengths` — package-merge that carries every package's
  leaf ids through ``max_bits - 1`` keyed sorts.  Its stable
  ``sorted(leaves + merged)`` *is* the tie rule (a leaf before a package
  of equal weight) the count-only version has to reproduce.
* :func:`canonical_codes` — walks the symbols in order, consuming
  RFC 1951's ``next_code``.
* :func:`lsb_codes` — one :func:`~repro.util.bitio.reverse_bits` per
  symbol.
* :func:`decoder_table` — one strided table fill per symbol.
* :func:`write_code_array` — one ``BitWriter.write_bits`` call per code.
* :func:`pack_tokens` — a small DEFLATE block's payload as one
  ``BitWriter.write_bits`` call per field, symbols from the numpy tables.
* :func:`inflate` — one ``peek_bits``/``skip_bits`` round trip per
  symbol against a numpy table, one ``append`` per overlapping byte,
  over its own byte-at-a-time reader (the shared ``BitReader`` now
  refills a word at a time, which is part of what is being compared).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import huffman
from repro.algorithms.deflate import tables as T
from repro.errors import CorruptStreamError, OutputOverflowError
from repro.util.bitio import BitWriter, reverse_bits

__all__ = [
    "code_lengths", "canonical_codes", "lsb_codes", "decoder_table",
    "write_code_array", "pack_tokens", "inflate",
]


def code_lengths(freqs: np.ndarray, max_bits: int) -> np.ndarray:
    """Optimal length-limited code lengths; see ``huffman.code_lengths``."""
    freqs = np.asarray(freqs, dtype=np.int64)
    used = np.flatnonzero(freqs > 0)
    lengths = np.zeros(freqs.size, dtype=np.int32)
    if used.size == 0:
        return lengths
    if used.size == 1:
        lengths[used[0]] = 1
        return lengths
    if used.size > (1 << max_bits):
        raise ValueError(
            f"{used.size} symbols cannot be coded in {max_bits}-bit codes"
        )

    # Leaves sorted by frequency.  Each item is (freq, tuple_of_leaf_ids).
    order = used[np.argsort(freqs[used], kind="stable")]
    leaves = [(int(freqs[s]), (int(s),)) for s in order]

    packages = list(leaves)
    for _ in range(max_bits - 1):
        # Pair up adjacent packages; drop a trailing odd one.
        merged = [
            (packages[i][0] + packages[i + 1][0], packages[i][1] + packages[i + 1][1])
            for i in range(0, len(packages) - 1, 2)
        ]
        # Merge the new packages back with the original leaves, keeping
        # the combined list sorted by frequency.
        packages = sorted(leaves + merged, key=lambda item: item[0])

    # The first 2n-2 items determine the code: each occurrence of a leaf
    # adds one to its code length.
    for _freq, members in packages[: 2 * used.size - 2]:
        for sym in members:
            lengths[sym] += 1
    return lengths


def canonical_codes(lengths: "list[int]") -> "list[int]":
    """Canonical (MSB-first) codes per RFC 1951; see ``huffman.canonical_code_list``."""
    bl_count = [0] * (max(lengths, default=0) + 1)
    for bits in lengths:
        bl_count[bits] += 1
    bl_count[0] = code = 0
    next_code = [0]
    for bits in range(1, len(bl_count)):
        code = (code + bl_count[bits - 1]) << 1
        if code + bl_count[bits] > (1 << bits):
            raise CorruptStreamError(f"over-subscribed Huffman tree at length {bits}")
        next_code.append(code)
    # Walk symbols in order, consuming next_code.
    codes = [0] * len(lengths)
    for sym, bits in enumerate(lengths):
        if bits:
            codes[sym] = next_code[bits]
            next_code[bits] += 1
    return codes


def write_code_array(writer: BitWriter, codes: np.ndarray, lengths: np.ndarray):
    """``BitWriter.write_code_array`` as one :meth:`~BitWriter.write_bits`
    call per code, byte-identical output."""
    write = writer.write_bits
    for code, nbits in zip(np.asarray(codes).tolist(), np.asarray(lengths).tolist()):
        if nbits:
            write(code & ((1 << nbits) - 1), nbits)


def pack_tokens(lengths, values, litlen_codes, litlen_bits, dist_codes, dist_bits):
    """``deflate.compress._pack_tokens`` as one ``write_bits`` call per
    field, each match mapped through the numpy symbol tables."""
    writer = BitWriter()
    for length, value in zip(lengths, values):
        if not length:
            writer.write_bits(litlen_codes[value], litlen_bits[value])
            continue
        lsym = int(T.LENGTH_SYM_FOR_LEN[length])
        dsym = int(T.dist_symbol(np.array([value]))[0])
        writer.write_bits(litlen_codes[257 + lsym], litlen_bits[257 + lsym])
        writer.write_bits(length - int(T.LENGTH_BASE[lsym]), int(T.LENGTH_EXTRA[lsym]))
        writer.write_bits(dist_codes[dsym], dist_bits[dsym])
        writer.write_bits(value - int(T.DIST_BASE[dsym]), int(T.DIST_EXTRA[dsym]))
    writer.write_bits(litlen_codes[T.END_OF_BLOCK], litlen_bits[T.END_OF_BLOCK])
    return int.from_bytes(writer.getvalue(), "little"), writer.bit_length


def lsb_codes(lengths: np.ndarray) -> np.ndarray:
    """Canonical codes in LSB-first wire order, reversed symbol by symbol."""
    lengths = np.asarray(lengths, dtype=np.int32)
    codes = huffman.canonical_codes(lengths)
    return np.array(
        [reverse_bits(int(c), int(n)) for c, n in zip(codes, lengths)],
        dtype=np.uint32,
    )


def decoder_table(lengths: np.ndarray) -> np.ndarray:
    """The flat ``(code_length << 9) | symbol`` table of ``HuffmanDecoder``."""
    lengths = np.asarray(lengths, dtype=np.int32)
    max_bits = int(lengths.max(initial=0))
    if max_bits == 0:
        raise CorruptStreamError("empty Huffman tree")
    if max_bits > huffman.MAX_CODE_BITS:
        raise CorruptStreamError(f"Huffman code length {max_bits} exceeds "
                                 f"{huffman.MAX_CODE_BITS} bits")
    codes = huffman.canonical_codes(lengths)
    table = np.zeros(1 << max_bits, dtype=np.uint32)
    for sym in np.flatnonzero(lengths > 0):
        nbits = int(lengths[sym])
        rev = reverse_bits(int(codes[sym]), nbits)
        # All peeked values whose low `nbits` bits equal `rev` decode
        # to this symbol: indices rev, rev + 2^nbits, rev + 2*2^nbits, ...
        table[rev :: 1 << nbits] = (nbits << 9) | int(sym)
    return table


class _ByteReader:
    """LSB-first bit reader that buffers one input byte at a time."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._pos = 0
        self._acc = 0
        self._nbits = 0

    def read_bits(self, nbits: int) -> int:
        while self._nbits < nbits:
            if self._pos >= len(self._data):
                raise CorruptStreamError("unexpected end of bit stream")
            self._acc |= self._data[self._pos] << self._nbits
            self._pos += 1
            self._nbits += 8
        value = self._acc & ((1 << nbits) - 1)
        self._acc >>= nbits
        self._nbits -= nbits
        return value

    def peek_bits(self, nbits: int) -> int:
        """Up to ``nbits`` bits, zero-filled past the end of the stream."""
        while self._nbits < nbits and self._pos < len(self._data):
            self._acc |= self._data[self._pos] << self._nbits
            self._pos += 1
            self._nbits += 8
        return self._acc & ((1 << nbits) - 1)

    def skip_bits(self, nbits: int) -> None:
        if nbits > self._nbits:
            raise CorruptStreamError("skip beyond buffered bits")
        self._acc >>= nbits
        self._nbits -= nbits

    def read_bytes(self, n: int) -> bytes:
        """Byte-align, then read ``n`` raw bytes."""
        self.skip_bits(self._nbits % 8)
        out = bytearray()
        while self._nbits and n:
            out.append(self.read_bits(8))
            n -= 1
        if self._pos + n > len(self._data):
            raise CorruptStreamError("unexpected end of byte stream")
        out += self._data[self._pos : self._pos + n]
        self._pos += n
        return bytes(out)


def _decode(reader: _ByteReader, table: np.ndarray, max_bits: int) -> int:
    entry = int(table[reader.peek_bits(max_bits)])
    if entry == 0:
        raise CorruptStreamError("invalid Huffman code in stream")
    reader.skip_bits(entry >> 9)
    return entry & 0x1FF


def _read_dynamic_tables(reader: _ByteReader) -> "tuple[np.ndarray, np.ndarray | None]":
    hlit = reader.read_bits(5) + 257
    hdist = reader.read_bits(5) + 1
    hclen = reader.read_bits(4) + 4
    if hlit > 286 or hdist > 30:
        raise CorruptStreamError("too many length or distance symbols")
    cl_lengths = np.zeros(19, dtype=np.int32)
    for k in range(hclen):
        cl_lengths[int(T.CLCODE_ORDER[k])] = reader.read_bits(3)
    cl_table = decoder_table(cl_lengths)
    cl_bits = int(cl_lengths.max())

    total = hlit + hdist
    lengths = np.zeros(total, dtype=np.int32)
    i = 0
    while i < total:
        sym = _decode(reader, cl_table, cl_bits)
        if sym < 16:
            lengths[i] = sym
            i += 1
            continue
        if sym == 16:
            if i == 0:
                raise CorruptStreamError("repeat code with no previous length")
            run, value = 3 + reader.read_bits(2), lengths[i - 1]
        elif sym == 17:
            run, value = 3 + reader.read_bits(3), 0
        else:
            run, value = 11 + reader.read_bits(7), 0
        if i + run > total:
            raise CorruptStreamError("code-length run overruns alphabet")
        lengths[i : i + run] = value
        i += run

    if lengths[T.END_OF_BLOCK] == 0:
        raise CorruptStreamError("dynamic block has no end-of-block code")
    if lengths[hlit:].max(initial=0) == 0:
        return decoder_table(lengths[:hlit]), None
    return decoder_table(lengths[:hlit]), decoder_table(lengths[hlit:])


_FIXED_TABLES: "tuple[np.ndarray, np.ndarray] | None" = None


def _fixed_tables() -> "tuple[np.ndarray, np.ndarray]":
    global _FIXED_TABLES
    if _FIXED_TABLES is None:
        _FIXED_TABLES = (decoder_table(T.FIXED_LITLEN_LENGTHS),
                         decoder_table(T.FIXED_DIST_LENGTHS))
    return _FIXED_TABLES


def _inflate_block(reader, out, lit_table, dist_table, max_output) -> None:
    lit_bits = lit_table.size.bit_length() - 1
    dist_bits = 0 if dist_table is None else dist_table.size.bit_length() - 1
    while True:
        sym = _decode(reader, lit_table, lit_bits)
        if sym < 256:
            out.append(sym)
        elif sym == T.END_OF_BLOCK:
            return
        else:
            if sym > 285:
                raise CorruptStreamError(f"invalid length symbol {sym}")
            idx = sym - 257
            length = int(T.LENGTH_BASE[idx]) + reader.read_bits(int(T.LENGTH_EXTRA[idx]))
            if dist_table is None:
                raise CorruptStreamError("match in block with empty distance tree")
            dsym = _decode(reader, dist_table, dist_bits)
            if dsym > 29:
                raise CorruptStreamError(f"invalid distance symbol {dsym}")
            dist = int(T.DIST_BASE[dsym]) + reader.read_bits(int(T.DIST_EXTRA[dsym]))
            start = len(out) - dist
            if start < 0:
                raise CorruptStreamError("back-reference before start of output")
            if dist >= length:
                out += out[start : start + length]
            else:
                for k in range(length):  # overlapping copy
                    out.append(out[start + k])
        if max_output is not None and len(out) > max_output:
            raise OutputOverflowError(
                f"decompressed output exceeds limit of {max_output} bytes"
            )


def inflate(data: bytes, max_output: "int | None" = None) -> bytes:
    """Inflate a raw DEFLATE stream; see ``deflate_decompress``."""
    reader = _ByteReader(data)
    out = bytearray()
    while True:
        bfinal = reader.read_bits(1)
        btype = reader.read_bits(2)
        if btype == 0:
            length = int.from_bytes(reader.read_bytes(2), "little")
            nlen = int.from_bytes(reader.read_bytes(2), "little")
            if length ^ nlen != 0xFFFF:
                raise CorruptStreamError("stored block LEN/NLEN mismatch")
            out += reader.read_bytes(length)
            if max_output is not None and len(out) > max_output:
                raise OutputOverflowError(
                    f"decompressed output exceeds limit of {max_output} bytes"
                )
        elif btype == 1:
            _inflate_block(reader, out, *_fixed_tables(), max_output)
        elif btype == 2:
            lit_table, dist_table = _read_dynamic_tables(reader)
            _inflate_block(reader, out, lit_table, dist_table, max_output)
        else:
            raise CorruptStreamError("reserved block type 3")
        if bfinal:
            return bytes(out)
