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
within the last 12 bytes (``MFLIMIT``).

The matcher is LZ4-style greedy with a single-probe hash table and the
reference implementation's *step acceleration*: after repeated probe
misses the scan stride grows, so incompressible regions are skipped at
amortised O(1) per byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CorruptStreamError, OutputOverflowError

__all__ = ["Lz4Config", "lz4_block_compress", "lz4_block_decompress"]

_MIN_MATCH = 4
_MFLIMIT = 12  # no match may start within the last 12 bytes
_LAST_LITERALS = 5
_MAX_OFFSET = 65535
_HASH_BITS = 16
#: Inputs shorter than this keep their hash table in a dict holding only
#: the slots their own positions hash to; allocating the 64 Ki-entry
#: list costs more than compressing a block this small.
_SPARSE_TABLE_BELOW = 2048


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
        out += offset.to_bytes(2, "little")
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
    skip_trigger = 6 + cfg.acceleration  # probe misses before stride grows

    while i <= match_limit:
        # --- search for a match at i (with step acceleration) ---
        misses = 1 << skip_trigger
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
            step = misses >> skip_trigger
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
    """Decompress a single LZ4 block."""
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
    return bytes(out)
