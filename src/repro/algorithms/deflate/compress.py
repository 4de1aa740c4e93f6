"""DEFLATE compressor (RFC 1951).

Pipeline: LZ77 tokenisation (:mod:`repro.algorithms.lz77`) → symbol
histograms → per-block choice among stored / fixed-Huffman /
dynamic-Huffman based on exact emitted sizes → bit packing.

Token streams are encoded as one DEFLATE block per ``block_tokens``
tokens (a single block for typical inputs); each block's Huffman trees
are built from that block's own statistics.  A block of at most
:data:`_SMALL_BLOCK_TOKENS` tokens is mapped, counted and packed from
the token lists in Python ints (:class:`_TokenLists`); a larger one
through numpy arrays (:class:`_TokenArrays`).  The trees, the header
and the block-type choice are shared, so both give the same bytes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import compress
from operator import mul

import numpy as np

from repro.algorithms import huffman
from repro.algorithms.deflate import tables as T
from repro.algorithms.lz77 import MatcherConfig, TokenStream, tokenize
from repro.obs.profile import get_profiler
from repro.util.bitio import BitWriter

__all__ = ["DeflateConfig", "deflate_compress"]

_MAX_BITS = 15  # litlen/dist code length limit
_MAX_CL_BITS = 7  # code-length alphabet limit

#: Blocks of at most this many tokens take the token lists as they are
#: (:class:`_TokenLists`), larger ones numpy arrays (:class:`_TokenArrays`).
#: Set from the measured crossover of the two paths' token work (DESIGN.md
#: §5j): ~530 tokens on xml, ~580 on mozilla, ~850 on literal-only noise.
#: Below it a block's ~20 numpy dispatches cost more than a loop over its
#: tokens; above it the loop's per-token cost (and the growing payload
#: int) does.
_SMALL_BLOCK_TOKENS = 512


@dataclass(frozen=True)
class DeflateConfig:
    """Compressor tuning.

    ``strategy`` selects block coding: ``"auto"`` picks the cheapest of
    stored/fixed/dynamic per block; ``"fixed"``/``"dynamic"``/``"stored"``
    force one type.  Only ``"auto"`` falls back to a stored block when a
    Huffman block would exceed the stored size.
    """

    matcher: MatcherConfig = field(default_factory=MatcherConfig)
    strategy: str = "auto"
    block_tokens: int = 1 << 20

    def __post_init__(self) -> None:
        if self.strategy not in ("auto", "fixed", "dynamic", "stored"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.matcher.window_size > T.WINDOW_SIZE:
            raise ValueError("DEFLATE window cannot exceed 32768")
        if self.matcher.max_match > T.MAX_MATCH:
            raise ValueError("DEFLATE match length cannot exceed 258")


# ---------------------------------------------------------------------------
# Tables as lists: the alphabet-sized work is plain ints on both paths
# ---------------------------------------------------------------------------

# Match length (3..258) -> literal/length symbol (257..285).
_LITLEN_FOR_LEN = (T.LENGTH_SYM_FOR_LEN + 257).tolist()
# Per literal/length symbol: base match length and extra bits (0 below 257).
_LITLEN_BASE = [0] * 257 + T.LENGTH_BASE.tolist()
_LITLEN_EXTRA = T.LITLEN_EXTRA.tolist()
# zlib's distance -> code table: entry ``d - 1`` for d <= 256, entry
# ``256 + (d - 1 >> 7)`` above (codes 16..29 start on multiples of 128).
_DIST_CODE = T.dist_symbol(
    np.concatenate([np.arange(1, 257), (np.arange(256) << 7) + 1])).tolist()
_DIST_BASE = T.DIST_BASE.tolist()
_DIST_EXTRA = T.DIST_EXTRA.tolist()
_FIXED_LITLEN_COST = T.FIXED_LITLEN_COST.tolist()
_FIXED_DIST_COST = T.FIXED_DIST_COST.tolist()
_FIXED_TREES = (T.FIXED_LITLEN_LENGTHS.tolist(), T.FIXED_DIST_LENGTHS.tolist())
_FIXED_CODES = (T.FIXED_LITLEN_CODES.tolist(), T.FIXED_DIST_CODES.tolist())
_CLCODE_ORDER = T.CLCODE_ORDER.tolist()


def _payload_bits(
    litlen_freq: "list[int]", dist_freq: "list[int]",
    litlen_bits: "list[int]", dist_bits: "list[int]",
) -> "tuple[int, int]":
    """Exact payload size in bits (EOB included) of a block under its
    dynamic trees and under the fixed trees, from its histograms.

    One pass over each alphabet's used symbols: an occurrence spends
    its code length plus its extra bits.
    """
    dynamic = fixed = 0
    for freq, bits, extra, fixed_cost in (
        (litlen_freq, litlen_bits, _LITLEN_EXTRA, _FIXED_LITLEN_COST),
        (dist_freq, dist_bits, _DIST_EXTRA, _FIXED_DIST_COST),
    ):
        for sym in compress(range(len(freq)), freq):
            count = freq[sym]
            dynamic += count * (bits[sym] + extra[sym])
            fixed += count * fixed_cost[sym]
    return dynamic, fixed


# ---------------------------------------------------------------------------
# Token-sized work, large blocks: numpy arrays
# ---------------------------------------------------------------------------

def _map_symbols(lengths: np.ndarray, values: np.ndarray) -> dict[str, np.ndarray]:
    """Map an LZ77 token block to DEFLATE symbol/extra-bit arrays.

    ``is_match`` and ``litlen_sym`` have one entry per token; the other
    arrays have one entry per *match*, in token order.
    """
    is_match = lengths > 0
    m_len = lengths[is_match]
    m_dist = values[is_match]
    lsym = T.LENGTH_SYM_FOR_LEN[m_len]
    dsym = T.dist_symbol(m_dist)
    litlen_sym = np.where(is_match, 0, values).astype(np.int32, copy=False)
    litlen_sym[is_match] = 257 + lsym
    return {
        "is_match": is_match,
        "litlen_sym": litlen_sym,
        "len_extra_bits": T.LENGTH_EXTRA[lsym],
        "len_extra_val": m_len - T.LENGTH_BASE[lsym],
        "dist_sym": dsym,
        "dist_extra_bits": T.DIST_EXTRA[dsym],
        "dist_extra_val": m_dist - T.DIST_BASE[dsym],
    }


class _TokenArrays:
    """A block's tokens as numpy arrays: vectorised symbol mapping,
    ``bincount`` histograms, one ``write_code_array`` for the payload."""

    def __init__(self, lengths: "list[int]", values: "list[int]") -> None:
        self.syms = syms = _map_symbols(np.asarray(lengths, dtype=np.int32),
                                        np.asarray(values, dtype=np.int32))
        litlen = np.bincount(syms["litlen_sym"], minlength=286)
        litlen[T.END_OF_BLOCK] += 1
        self.litlen_freq = litlen.tolist()
        self.dist_freq = np.bincount(syms["dist_sym"], minlength=30).tolist()

    def emit(self, writer: BitWriter, litlen_codes: "list[int]",
             litlen_bits: "list[int]", dist_codes: "list[int]",
             dist_bits: "list[int]") -> None:
        syms = self.syms
        n = syms["litlen_sym"].size
        codes = np.zeros((n, 4), dtype=np.uint32)
        bits = np.zeros((n, 4), dtype=np.int64)
        lsym = syms["litlen_sym"]
        codes[:, 0] = np.array(litlen_codes, dtype=np.uint32)[lsym]
        bits[:, 0] = np.array(litlen_bits)[lsym]
        is_match = syms["is_match"]
        dsym = syms["dist_sym"]
        if dsym.size:
            codes[is_match, 1] = syms["len_extra_val"]
            bits[is_match, 1] = syms["len_extra_bits"]
            codes[is_match, 2] = np.array(dist_codes, dtype=np.uint32)[dsym]
            bits[is_match, 2] = np.array(dist_bits)[dsym]
            codes[is_match, 3] = syms["dist_extra_val"]
            bits[is_match, 3] = syms["dist_extra_bits"]
        writer.write_code_array(codes.reshape(-1), bits.reshape(-1))
        writer.write_bits(litlen_codes[T.END_OF_BLOCK], litlen_bits[T.END_OF_BLOCK])


# ---------------------------------------------------------------------------
# Token-sized work, small blocks: the token lists as they are
# ---------------------------------------------------------------------------

class _TokenLists:
    """A block's tokens as the lists ``tokenize`` returned: one loop
    counts both histograms through list lookups, :func:`_pack_tokens`
    builds the payload as one int."""

    def __init__(self, lengths: "list[int]", values: "list[int]") -> None:
        self.lengths = lengths
        self.values = values
        litlen = [0] * 286
        litlen[T.END_OF_BLOCK] = 1
        dist = [0] * 30
        litlen_for_len, dist_code = _LITLEN_FOR_LEN, _DIST_CODE
        for length, value in zip(lengths, values):
            if length:
                litlen[litlen_for_len[length]] += 1
                value -= 1
                dist[dist_code[value if value < 256 else 256 + (value >> 7)]] += 1
            else:
                litlen[value] += 1
        self.litlen_freq = litlen
        self.dist_freq = dist

    def emit(self, writer: BitWriter, litlen_codes: "list[int]",
             litlen_bits: "list[int]", dist_codes: "list[int]",
             dist_bits: "list[int]") -> None:
        writer.write_bits(*_pack_tokens(self.lengths, self.values, litlen_codes,
                                        litlen_bits, dist_codes, dist_bits))


def _pack_tokens(
    lengths: "list[int]", values: "list[int]",
    litlen_codes: "list[int]", litlen_bits: "list[int]",
    dist_codes: "list[int]", dist_bits: "list[int]",
) -> "tuple[int, int]":
    """A block's payload + EOB packed LSB-first into one int.

    Returns ``(value, nbits)`` for a single ``write_bits``.  The codes
    are the trees' LSB-first codes, indexed by symbol.
    """
    litlen_for_len, litlen_base, litlen_extra = _LITLEN_FOR_LEN, _LITLEN_BASE, _LITLEN_EXTRA
    dist_code, dist_base, dist_extra = _DIST_CODE, _DIST_BASE, _DIST_EXTRA
    acc = nbits = 0
    for length, value in zip(lengths, values):
        if length:
            sym = litlen_for_len[length]
            width = litlen_bits[sym]
            acc |= (litlen_codes[sym] | (length - litlen_base[sym]) << width) << nbits
            nbits += width + litlen_extra[sym]
            value -= 1
            sym = dist_code[value if value < 256 else 256 + (value >> 7)]
            width = dist_bits[sym]
            acc |= (dist_codes[sym] | (value + 1 - dist_base[sym]) << width) << nbits
            nbits += width + dist_extra[sym]
        else:
            acc |= litlen_codes[value] << nbits
            nbits += litlen_bits[value]
    acc |= litlen_codes[T.END_OF_BLOCK] << nbits
    return acc, nbits + litlen_bits[T.END_OF_BLOCK]


# ---------------------------------------------------------------------------
# Dynamic tree header (code-length-code encoding, RFC 1951 §3.2.7)
# ---------------------------------------------------------------------------

#: Bits of the repeat field behind each code-length symbol (16..18).
_CL_EXTRA_BITS = [0] * 16 + [2, 3, 7]

#: A run the code-length RLE shortens: three or more zeros, or four or
#: more of one non-zero length (which is sent once, then repeated).
_LONG_RUN = re.compile(rb"\x00{3,}|(.)\1{3,}", re.DOTALL)


def _rle_code_lengths(all_lengths: "list[int]") -> tuple[list[int], list[int]]:
    """RLE-compress the concatenated litlen+dist length sequence.

    Returns ``(cl_symbols, extras)``: ``extras`` holds, in order of
    appearance, the extra-field value behind each repeat symbol (16..18)
    in ``cl_symbols``; :data:`_CL_EXTRA_BITS` gives the field widths.
    """
    syms: list[int] = []
    extras: list[int] = []
    # A regex over the lengths as bytes finds the few runs worth a
    # repeat code; everything between them goes out as is.  A run is
    # cut greedily into the longest repeats (6 per 16 after the length
    # itself; 138 zeros per 18, then one 18, 17 or plain zeros for the
    # rest), so its shape is a divmod.
    pos = 0
    for match in _LONG_RUN.finditer(bytes(all_lengths)):
        start, end = match.span()
        syms += all_lengths[pos:start]
        pos = end
        value = all_lengths[start]
        if value:
            full, rest = divmod(end - start - 1, 6)
            syms.append(value)
            syms += [16] * full
            extras += [3] * full
            if rest >= 3:
                syms.append(16)
                extras.append(rest - 3)
            else:
                syms += [value] * rest
        else:
            full, rest = divmod(end - start, 138)
            syms += [18] * full
            extras += [127] * full
            if rest >= 11:
                syms.append(18)
                extras.append(rest - 11)
            elif rest >= 3:
                syms.append(17)
                extras.append(rest - 3)
            else:
                syms += [0] * rest
    syms += all_lengths[pos:]
    return syms, extras


def _dynamic_header(
    litlen_bits: "list[int]", dist_bits: "list[int]"
) -> tuple[int, int]:
    """Build the dynamic block header (everything after BTYPE).

    Returns ``(value, nbits)``: the header's fields packed LSB-first into
    one integer, ready for a single ``write_bits``.
    """
    # HLIT: number of litlen codes - 257 (the EOB code is always used).
    hlit = len(litlen_bits)
    while hlit > 257 and not litlen_bits[hlit - 1]:
        hlit -= 1
    hdist = len(dist_bits)
    while hdist > 1 and not dist_bits[hdist - 1]:
        hdist -= 1

    cl_syms, cl_extras = _rle_code_lengths(litlen_bits[:hlit] + dist_bits[:hdist])
    cl_freq = [0] * 19
    for sym in cl_syms:
        cl_freq[sym] += 1
    cl_bits = huffman.code_length_list(cl_freq, _MAX_CL_BITS)
    cl_codes = huffman.lsb_code_list(cl_bits)

    ordered = [cl_bits[sym] for sym in _CLCODE_ORDER]
    hclen = 19
    while hclen > 4 and ordered[hclen - 1] == 0:
        hclen -= 1

    value = (hlit - 257) | (hdist - 1) << 5 | (hclen - 4) << 10
    nbits = 14
    for length in ordered[:hclen]:
        value |= length << nbits
        nbits += 3
    extras = iter(cl_extras)
    for sym in cl_syms:
        value |= cl_codes[sym] << nbits
        nbits += cl_bits[sym]
        if sym >= 16:
            value |= next(extras) << nbits
            nbits += _CL_EXTRA_BITS[sym]
    return value, nbits


# ---------------------------------------------------------------------------
# Block emission
# ---------------------------------------------------------------------------

def _emit_huffman_block(
    writer: BitWriter,
    block: "_TokenArrays | _TokenLists",
    litlen_bits: "list[int]",
    dist_bits: "list[int]",
    codes: "tuple[list[int], list[int]] | None" = None,
) -> None:
    """Emit the block's token payload + EOB under the given trees.

    ``codes`` is the trees' ``(litlen, dist)`` LSB-first codes when the
    caller already has them (the fixed trees); otherwise they are built
    from the code lengths here.
    """
    with get_profiler().kernel("huffman.emit"):
        litlen_codes, dist_codes = codes or (
            huffman.lsb_code_list(litlen_bits), huffman.lsb_code_list(dist_bits)
        )
        block.emit(writer, litlen_codes, litlen_bits, dist_codes, dist_bits)


def _emit_stored_block(writer: BitWriter, raw: bytes, final: bool) -> None:
    """Emit stored (BTYPE=00) blocks; splits chunks over 65535 bytes."""
    pos = 0
    n = len(raw)
    while True:
        chunk = raw[pos : pos + 65535]
        pos += len(chunk)
        last = final and pos >= n
        writer.write_bits(1 if last else 0, 1)
        writer.write_bits(0, 2)
        writer.align_to_byte()
        ln = len(chunk)
        writer.write_bits(ln, 16)
        writer.write_bits(ln ^ 0xFFFF, 16)
        writer.write_bytes(chunk)
        if pos >= n:
            break


def deflate_compress(data: bytes, config: DeflateConfig | None = None) -> bytes:
    """Compress ``data`` into a raw DEFLATE stream."""
    with get_profiler().kernel("deflate.compress"):
        return _deflate_compress(data, config)


def _deflate_compress(data: bytes, config: DeflateConfig | None) -> bytes:
    cfg = config or DeflateConfig()

    if len(data) == 0:
        # A single final fixed block containing only EOB.
        writer = BitWriter()
        writer.write_bits(1, 1)
        writer.write_bits(1, 2)
        writer.write_bits(0, 7)  # EOB in the fixed tree is seven 0-bits
        return writer.getvalue()

    if cfg.strategy == "stored":
        writer = BitWriter()
        _emit_stored_block(writer, data, final=True)
        return writer.getvalue()

    tokens = tokenize(data, cfg.matcher)
    writer = BitWriter()

    n_tokens = len(tokens)
    block_starts = list(range(0, n_tokens, cfg.block_tokens)) or [0]
    raw_stop = 0  # byte offset of the next block's first token

    for start in block_starts:
        stop = min(start + cfg.block_tokens, n_tokens)
        final = stop >= n_tokens
        lengths = tokens.lengths[start:stop]
        path = _TokenLists if stop - start <= _SMALL_BLOCK_TOKENS else _TokenArrays
        block = path(lengths, tokens.values[start:stop])
        # The raw bytes the block covers, should it go out stored: a
        # literal token is one byte, a match its length.
        raw_start = raw_stop
        raw_stop += sum(lengths) + lengths.count(0)
        raw = data[raw_start:raw_stop]

        litlen_freq, dist_freq = block.litlen_freq, block.dist_freq
        dyn_litlen = huffman.code_length_list(litlen_freq, _MAX_BITS)
        dyn_dist = huffman.code_length_list(dist_freq, _MAX_BITS)
        if not any(dyn_dist):
            # RFC: at least one distance code must be describable.
            dyn_dist[0] = 1

        header, header_bits = _dynamic_header(dyn_litlen, dyn_dist)
        dyn_payload, fixed_payload = _payload_bits(
            litlen_freq, dist_freq, dyn_litlen, dyn_dist)
        dyn_bits = 3 + header_bits + dyn_payload
        fixed_bits = 3 + fixed_payload
        stored_bits = (len(raw) + 5 * (1 + len(raw) // 65535)) * 8 + 8

        choice = cfg.strategy
        if choice == "auto":
            best = min(dyn_bits, fixed_bits, stored_bits)
            if best == stored_bits:
                choice = "stored_block"
            elif best == fixed_bits:
                choice = "fixed"
            else:
                choice = "dynamic"

        if choice == "stored_block":
            _emit_stored_block(writer, raw, final)
            continue

        if choice == "fixed":
            writer.write_bits(final | 1 << 1, 3)
            _emit_huffman_block(writer, block, *_FIXED_TREES, _FIXED_CODES)
        else:
            writer.write_bits(final | 2 << 1 | header << 3, 3 + header_bits)
            _emit_huffman_block(writer, block, dyn_litlen, dyn_dist)

    return writer.getvalue()
