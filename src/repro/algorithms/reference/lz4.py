"""Twins of the LZ4 block codec (:mod:`repro.algorithms.lz4.block`).

The compressor hashes every position into a Python list, keeps its hash
table in a dict below 2 KiB and a 64 Ki-entry list above, checks a probe
with two 4-byte slices and extends a match by 16-byte slices, then
single bytes.  The decoder reads the offset with ``int.from_bytes`` and
tests ``max_output`` through ``None`` on every sequence; like
production, it refuses a block that ends on a match.  Production must
emit the same block, and decode to the same bytes or raise the same
error class, for every input.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.lz4.block import (
    _HASH_BITS,
    _LAST_LITERALS,
    _MAX_OFFSET,
    _MFLIMIT,
    _MIN_MATCH,
    _SKIP_TRIGGER,
    Lz4Config,
    _emit_sequence,
)
from repro.errors import CorruptStreamError, OutputOverflowError

__all__ = ["lz4_block_compress", "lz4_block_decompress"]

#: Inputs shorter than this keep their hash table in a dict holding only
#: the slots their own positions hash to.
_SPARSE_TABLE_BELOW = 2048


def _hash_all(data: bytes) -> list[int]:
    """4-byte multiplicative hash for every position with i+3 < len."""
    buf = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    if buf.size < 4:
        return []
    word = (
        buf[:-3]
        | (buf[1:-2] << np.uint32(8))
        | (buf[2:-1] << np.uint32(16))
        | (buf[3:] << np.uint32(24))
    )
    h = (word * np.uint32(2654435761)) >> np.uint32(32 - _HASH_BITS)
    return h.tolist()


def lz4_block_compress(data: bytes, config: Lz4Config | None = None) -> bytes:
    """Twin of ``lz4.block.lz4_block_compress``: the same block."""
    cfg = config or Lz4Config()
    n = len(data)
    out = bytearray()
    if n == 0:
        return bytes(out)
    if n < _MFLIMIT + 1:
        _emit_sequence(out, data, 0, 0)
        return bytes(out)

    hashes = _hash_all(data)
    # Either table maps slot -> last position, every slot starting at -1,
    # so the candidates (and the block) do not depend on which is used.
    if n < _SPARSE_TABLE_BELOW:
        table = dict.fromkeys(hashes, -1)
    else:
        table = [-1] * (1 << _HASH_BITS)
    match_limit = n - _MFLIMIT  # last position where a match may start
    anchor = 0
    i = 0

    while i <= match_limit:
        # --- search for a match at i (with step acceleration) ---
        misses = cfg.acceleration << _SKIP_TRIGGER
        cand = -1
        while True:
            if i > match_limit:
                cand = -1
                break
            h = hashes[i]
            cand = table[h]
            table[h] = i
            if (
                cand >= 0
                and i - cand <= _MAX_OFFSET
                and data[cand : cand + 4] == data[i : i + 4]
            ):
                break
            step = misses >> _SKIP_TRIGGER
            misses += 1
            i += step
            cand = -1
        if cand < 0:
            break

        # Extend backward over pending literals.
        while i > anchor and cand > 0 and data[i - 1] == data[cand - 1]:
            i -= 1
            cand -= 1

        # Extend forward, stopping before the trailing literal region.
        limit = n - _LAST_LITERALS
        mlen = 4
        while i + mlen + 16 <= limit and (
            data[cand + mlen : cand + mlen + 16] == data[i + mlen : i + mlen + 16]
        ):
            mlen += 16
        while i + mlen < limit and data[cand + mlen] == data[i + mlen]:
            mlen += 1

        lit_len = i - anchor
        if lit_len < 15 and mlen < _MIN_MATCH + 15:
            # Both lengths fit the token's nibbles: no extension bytes.
            out.append(lit_len << 4 | mlen - _MIN_MATCH)
            out += data[anchor:i]
            out += (i - cand).to_bytes(2, "little")
        else:
            _emit_sequence(out, data[anchor:i], mlen, i - cand)
        i += mlen
        anchor = i
        # Seed the table for intra-match positions (sparse, like lz4 fast).
        if i - 2 > cand and i - 2 <= match_limit:
            table[hashes[i - 2]] = i - 2

    _emit_sequence(out, data[anchor:], 0, 0)
    return bytes(out)


def lz4_block_decompress(
    block: bytes, max_output: int | None = None
) -> bytes:
    """Twin of ``lz4.block.lz4_block_decompress``: the same bytes, or
    the same error class."""
    out = bytearray()
    i = 0
    n = len(block)
    if n == 0:
        return b""
    while i < n:
        token = block[i]
        i += 1
        lit_len = token >> 4
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
        if max_output is not None and len(out) > max_output:
            raise OutputOverflowError("LZ4 output exceeds limit")
        if i == n:
            break  # final, literal-only sequence
        if i + 2 > n:
            raise CorruptStreamError("truncated match offset")
        offset = int.from_bytes(block[i : i + 2], "little")
        i += 2
        if offset == 0:
            raise CorruptStreamError("zero match offset")
        match_len = (token & 0x0F) + _MIN_MATCH
        if token & 0x0F == 15:
            while True:
                if i >= n:
                    raise CorruptStreamError("truncated match-length extension")
                b = block[i]
                i += 1
                match_len += b
                if b != 255:
                    break
        start = len(out) - offset
        if start < 0:
            raise CorruptStreamError("match offset before start of output")
        if max_output is not None and len(out) + match_len > max_output:
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
