"""LZ4 block format codec.

Format (per the LZ4 block specification): a sequence is

* a token byte — high nibble: literal run length (15 ⇒ continued in
  255-saturated extension bytes), low nibble: match length − 4 (15 ⇒
  continued likewise);
* the literal bytes;
* a 2-byte little-endian match offset (1..65535);
* optional match-length extension bytes.

End-of-block rules honoured by the compressor: the last sequence is
literal-only, the final 5 bytes are always literals, and no match starts
within the last 12 bytes (``MFLIMIT``).  The decoder holds a block to
the first rule too: a block that ends on a match was cut.

The matcher is LZ4-style greedy with a single-probe hash table and the
reference implementation's *step acceleration*: after repeated probe
misses the scan stride grows, so incompressible regions are skipped at
amortised O(1) per byte.

Its Python work is per probe and per sequence, not per byte.  One numpy
pass over a zero-padded copy gives every position's 16-bit hash
(``array('H')``) and its little-endian 8-byte word (``array('Q')``).
A probe XORs two words: equal low 4 bytes accept it, and the lowest set
bit of the XOR names the first differing byte, so the probe's XOR is
also the first step of forward extension; a longer match goes on one
word XOR at a time, capped before the trailing literals (the padding is
only ever compared past that cap).  The hash table is one 64 Ki-entry
``array('i')`` at every input size (~11 µs to build; a list is
~180 µs), its empty slots far enough below zero to fail the offset
test before a word is read.  The decoder is per sequence too: an empty
literal run copies nothing, the offset is two byte reads, and the
output length is a local checked against ``max_output`` as one int
compare.  The per-byte predecessors of both directions are kept as
twins in :mod:`repro.algorithms.reference.lz4`, which they match byte
for byte and error class for error class.
"""

from __future__ import annotations

import struct
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from repro.errors import CorruptStreamError, OutputOverflowError

__all__ = ["Lz4Config", "lz4_block_compress", "lz4_block_decompress"]

_MIN_MATCH = 4
_MFLIMIT = 12  # no match may start within the last 12 bytes
_LAST_LITERALS = 5
_MAX_OFFSET = 65535
_HASH_BITS = 16
_HASH_PRIME = 2654435761
#: An empty table slot: ``i - _EMPTY > _MAX_OFFSET`` at every ``i >= 0``,
#: so the offset test rejects it before its word is read.
_EMPTY = -(_MAX_OFFSET + 1)
_PACK_OFFSET = struct.Struct("<H").pack
_PACK_TOKEN_OFFSET = struct.Struct("<BH").pack


@dataclass(frozen=True)
class Lz4Config:
    """Compressor tuning.

    ``acceleration`` mirrors liblz4's parameter: higher values skip
    faster through incompressible data at some ratio cost.
    """

    acceleration: int = 1

    def __post_init__(self) -> None:
        if self.acceleration < 1:
            raise ValueError("acceleration must be >= 1")


def _typed(code: str, values: np.ndarray) -> array:
    """``values`` as an ``array(code)`` of the same item size, one copy."""
    typed = array(code)
    typed.frombytes(values.view(np.uint8))
    return typed


def _position_tables(data: bytes) -> "tuple[array, array]":
    """Hash and little-endian 8-byte word of every position.

    Words read a copy of ``data`` padded with 8 zero bytes; the hash is
    of the word's low 4 bytes.  Only positions whose 4 bytes are all in
    ``data`` are ever hashed or probed.
    """
    n = len(data)
    padded = np.frombuffer(bytes(data) + bytes(8), dtype=np.uint8)
    # array() is native-endian, hence the astype (a no-op on
    # little-endian hosts).
    words = _typed("Q", np.ndarray((n,), "<u8", padded, 0, (1,)).astype(np.uint64))
    hashes = np.frombuffer(words, dtype=np.uint64).astype(np.uint32)
    hashes *= np.uint32(_HASH_PRIME)
    hashes >>= np.uint32(32 - _HASH_BITS)
    return _typed("H", hashes.astype(np.uint16)), words


def _write_varlen(out: bytearray, value: int) -> None:
    """255-saturated length extension bytes."""
    while value >= 255:
        out.append(255)
        value -= 255
    out.append(value)


def _emit_sequence(
    out: bytearray, literals: bytes, match_len: int, offset: int
) -> None:
    lit_len = len(literals)
    token_lit = min(lit_len, 15)
    if match_len:
        token_match = min(match_len - _MIN_MATCH, 15)
    else:
        token_match = 0
    out.append((token_lit << 4) | token_match)
    if token_lit == 15:
        _write_varlen(out, lit_len - 15)
    out += literals
    if match_len:
        out += _PACK_OFFSET(offset)
        if token_match == 15:
            _write_varlen(out, match_len - _MIN_MATCH - 15)


def lz4_block_compress(data: bytes, config: Lz4Config | None = None) -> bytes:
    """Compress ``data`` into a single LZ4 block."""
    cfg = config or Lz4Config()
    n = len(data)
    out = bytearray()
    if n == 0:
        return bytes(out)
    if n < _MFLIMIT + 1:
        _emit_sequence(out, data, 0, 0)
        return bytes(out)

    hashes, words = _position_tables(data)
    table = array("i", [_EMPTY]) * (1 << _HASH_BITS)
    match_limit = n - _MFLIMIT  # last position where a match may start
    end = n - _LAST_LITERALS  # a match stops before the trailing literals
    anchor = 0
    i = 0
    skip_trigger = 6 + cfg.acceleration  # probe misses before stride grows
    misses = 1 << skip_trigger

    while i <= match_limit:
        # Probe: a candidate within reach whose low 4 bytes are equal.
        # After repeated misses the stride grows (step acceleration).
        h = hashes[i]
        cand = table[h]
        table[h] = i
        if i - cand > _MAX_OFFSET or (diff := words[cand] ^ words[i]) & 0xFFFFFFFF:
            i += misses >> skip_trigger
            misses += 1
            continue

        # Extend forward: the lowest set bit of an XOR names the first
        # differing byte, and the probe's XOR is the first word.
        if diff:
            mlen = (diff & -diff).bit_length() - 1 >> 3
        else:
            cap = end - i
            mlen = 8
            while mlen < cap:
                diff = words[cand + mlen] ^ words[i + mlen]
                if diff:
                    mlen += (diff & -diff).bit_length() - 1 >> 3
                    break
                mlen += 8
            if mlen > cap:
                mlen = cap

        # Extend backward over pending literals; every byte gained
        # lengthens the match, and moves its cap, by one.
        while i > anchor and cand > 0 and data[i - 1] == data[cand - 1]:
            i -= 1
            cand -= 1
            mlen += 1

        lit_len = i - anchor
        if lit_len < 15 and mlen < _MIN_MATCH + 15:
            # Both lengths fit the token's nibbles: no extension bytes.
            if lit_len:
                out.append(lit_len << 4 | mlen - _MIN_MATCH)
                out += data[anchor:i]
                out += _PACK_OFFSET(i - cand)
            else:
                out += _PACK_TOKEN_OFFSET(mlen - _MIN_MATCH, i - cand)
        else:
            _emit_sequence(out, data[anchor:i], mlen, i - cand)
        i += mlen
        anchor = i
        misses = 1 << skip_trigger
        # Seed the table for intra-match positions (sparse, like lz4
        # fast).  Every table entry is below the probe that found it, so
        # i - 2 is past the candidate.
        if i - 2 <= match_limit:
            table[hashes[i - 2]] = i - 2

    _emit_sequence(out, data[anchor:], 0, 0)
    return bytes(out)


def lz4_block_decompress(
    block: bytes, max_output: int | None = None
) -> bytes:
    """Decompress a single LZ4 block."""
    n = len(block)
    if n == 0:
        return b""
    limit = sys.maxsize if max_output is None else max_output
    out = bytearray()
    size = 0  # len(out)
    i = 0
    while True:
        token = block[i]
        i += 1
        lit_len = token >> 4
        if lit_len:
            if lit_len == 15:
                while True:
                    if i >= n:
                        raise CorruptStreamError("truncated literal-length extension")
                    b = block[i]
                    i += 1
                    lit_len += b
                    if b != 255:
                        break
            if i + lit_len > n:
                raise CorruptStreamError("literal run overruns block")
            out += block[i : i + lit_len]
            i += lit_len
            size += lit_len
        if size > limit:
            raise OutputOverflowError("LZ4 output exceeds limit")
        if i == n:
            break  # final, literal-only sequence
        if i + 2 > n:
            raise CorruptStreamError("truncated match offset")
        offset = block[i] | block[i + 1] << 8
        i += 2
        if not offset:
            raise CorruptStreamError("zero match offset")
        match_len = token & 0x0F
        if match_len == 15:
            while True:
                if i >= n:
                    raise CorruptStreamError("truncated match-length extension")
                b = block[i]
                i += 1
                match_len += b
                if b != 255:
                    break
        match_len += _MIN_MATCH
        start = size - offset
        if start < 0:
            raise CorruptStreamError("match offset before start of output")
        size += match_len
        if size > limit:
            raise OutputOverflowError("LZ4 output exceeds limit")
        if offset >= match_len:
            out += out[start : start + match_len]
        else:
            # Overlapping copy: the last ``offset`` bytes repeat.
            pattern = out[start:]
            repeats, rest = divmod(match_len, offset)
            out += pattern * repeats + pattern[:rest]
        if i == n:
            raise CorruptStreamError("block ends on a match, not on literals")
    return bytes(out)
