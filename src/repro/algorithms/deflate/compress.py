"""DEFLATE compressor (RFC 1951).

Pipeline: LZ77 tokenisation (:mod:`repro.algorithms.lz77`) → vectorised
symbol mapping → per-block choice among stored / fixed-Huffman /
dynamic-Huffman based on exact emitted sizes → bulk bit packing.

Token streams are encoded as one DEFLATE block per ``block_tokens``
tokens (a single block for typical inputs); each block's Huffman trees
are built from that block's own statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms import huffman
from repro.algorithms.deflate import tables as T
from repro.algorithms.lz77 import MatcherConfig, TokenStream, tokenize
from repro.obs.profile import get_profiler
from repro.util.bitio import BitWriter

__all__ = ["DeflateConfig", "deflate_compress"]

_MAX_BITS = 15  # litlen/dist code length limit
_MAX_CL_BITS = 7  # code-length alphabet limit


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
# Symbol mapping
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


def _block_cost_bits(
    litlen_freq: np.ndarray,
    dist_freq: np.ndarray,
    litlen_cost: np.ndarray,
    dist_cost: np.ndarray,
) -> int:
    """Exact payload size in bits of a block, from its symbol histograms.

    ``*_cost`` is what one occurrence of each symbol spends: its code
    length plus its extra bits.  ``litlen_freq`` counts the block's
    end-of-block symbol too, so the two dot products are the whole payload.
    """
    return int(litlen_freq @ litlen_cost) + int(dist_freq @ dist_cost)


# ---------------------------------------------------------------------------
# Dynamic tree header (code-length-code encoding, RFC 1951 §3.2.7)
# ---------------------------------------------------------------------------

_CL_EXTRA_BITS = {16: 2, 17: 3, 18: 7}


def _rle_code_lengths(all_lengths: np.ndarray) -> tuple[list[int], list[int]]:
    """RLE-compress the concatenated litlen+dist length sequence.

    Returns ``(cl_symbols, extras)``: ``extras`` holds, in order of
    appearance, the extra-field value behind each repeat symbol (16..18)
    in ``cl_symbols``; :data:`_CL_EXTRA_BITS` gives the field widths.
    """
    syms: list[int] = []
    extras: list[int] = []
    # Run boundaries in one numpy pass; the loop then visits runs, not
    # the ~290 lengths (most of them zeros in a few long runs).
    cuts = np.flatnonzero(all_lengths[1:] != all_lengths[:-1]) + 1
    starts = [0, *cuts.tolist(), all_lengths.size]
    for i, value in enumerate(all_lengths[starts[:-1]].tolist()):
        run = starts[i + 1] - starts[i]
        if value == 0:
            while run >= 11:
                take = min(run, 138)
                syms.append(18)
                extras.append(take - 11)
                run -= take
            while run >= 3:
                take = min(run, 10)
                syms.append(17)
                extras.append(take - 3)
                run -= take
        elif run >= 4:
            syms.append(value)
            run -= 1
            while run >= 3:
                take = min(run, 6)
                syms.append(16)
                extras.append(take - 3)
                run -= take
        syms += [value] * run
    return syms, extras


def _dynamic_header(
    litlen_lengths: np.ndarray, dist_lengths: np.ndarray
) -> tuple[int, int]:
    """Build the dynamic block header (everything after BTYPE).

    Returns ``(value, nbits)``: the header's fields packed LSB-first into
    one integer, ready for a single ``write_bits``.
    """
    # HLIT: number of litlen codes - 257 (at least the EOB code is used).
    hlit = max(int(np.flatnonzero(litlen_lengths).max(initial=256)) + 1, 257)
    hdist = max(int(np.flatnonzero(dist_lengths).max(initial=0)) + 1, 1)

    all_lengths = np.concatenate([litlen_lengths[:hlit], dist_lengths[:hdist]])
    cl_syms, cl_extras = _rle_code_lengths(all_lengths)

    cl_freq = np.bincount(cl_syms, minlength=19)
    cl_lengths = huffman.code_lengths(cl_freq, _MAX_CL_BITS)
    cl_codes = huffman.lsb_codes(cl_lengths).tolist()

    ordered = cl_lengths[T.CLCODE_ORDER].tolist()
    cl_bits = cl_lengths.tolist()
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
    syms: dict[str, np.ndarray],
    litlen_lengths: np.ndarray,
    dist_lengths: np.ndarray,
    codes: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> None:
    """Emit the token payload + EOB under the given trees (bulk-packed).

    ``codes`` is the trees' ``(litlen, dist)`` LSB-first codes when the
    caller already has them (the fixed trees); otherwise they are built
    from the lengths here.
    """
    with get_profiler().kernel("huffman.emit"):
        litlen_codes, dist_codes = codes or (
            huffman.lsb_codes(litlen_lengths), huffman.lsb_codes(dist_lengths)
        )
        _emit_huffman_payload(
            writer, syms, litlen_codes, litlen_lengths, dist_codes, dist_lengths
        )


def _emit_huffman_payload(
    writer: BitWriter,
    syms: dict[str, np.ndarray],
    litlen_codes: np.ndarray,
    litlen_lengths: np.ndarray,
    dist_codes: np.ndarray,
    dist_lengths: np.ndarray,
) -> None:
    n = syms["litlen_sym"].size
    codes = np.zeros((n, 4), dtype=np.uint32)
    bits = np.zeros((n, 4), dtype=np.int64)
    lsym = syms["litlen_sym"]
    codes[:, 0] = litlen_codes[lsym]
    bits[:, 0] = litlen_lengths[lsym]
    is_match = syms["is_match"]
    dsym = syms["dist_sym"]
    if dsym.size:
        codes[is_match, 1] = syms["len_extra_val"]
        bits[is_match, 1] = syms["len_extra_bits"]
        codes[is_match, 2] = dist_codes[dsym]
        bits[is_match, 2] = dist_lengths[dsym]
        codes[is_match, 3] = syms["dist_extra_val"]
        bits[is_match, 3] = syms["dist_extra_bits"]
    writer.write_code_array(codes.reshape(-1), bits.reshape(-1))
    writer.write_bits(int(litlen_codes[T.END_OF_BLOCK]), int(litlen_lengths[T.END_OF_BLOCK]))


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
    tok_lengths, tok_values = tokens.arrays()

    n_tokens = len(tokens)
    block_starts = list(range(0, n_tokens, cfg.block_tokens)) or [0]
    raw_stop = 0  # byte offset of the next block's first token

    for start in block_starts:
        stop = min(start + cfg.block_tokens, n_tokens)
        final = stop >= n_tokens
        blk_lengths = tok_lengths[start:stop]
        syms = _map_symbols(blk_lengths, tok_values[start:stop])
        # The raw bytes the block covers, should it go out stored: a
        # literal token is one byte, a match its length.
        raw_start = raw_stop
        raw_stop += int(np.maximum(blk_lengths, 1).sum())
        raw = data[raw_start:raw_stop]

        litlen_freq = np.bincount(syms["litlen_sym"], minlength=286)
        litlen_freq[T.END_OF_BLOCK] += 1
        dist_freq = np.bincount(syms["dist_sym"], minlength=30)

        dyn_litlen = huffman.code_lengths(litlen_freq, _MAX_BITS)
        dyn_dist = huffman.code_lengths(dist_freq, _MAX_BITS)
        if not dist_freq.any():
            # RFC: at least one distance code must be describable.
            dyn_dist = dyn_dist.copy()
            dyn_dist[0] = 1

        header, header_bits = _dynamic_header(dyn_litlen, dyn_dist)
        dyn_bits = 3 + header_bits + _block_cost_bits(
            litlen_freq, dist_freq,
            dyn_litlen + T.LITLEN_EXTRA, dyn_dist + T.DIST_EXTRA,
        )
        fixed_bits = 3 + _block_cost_bits(
            litlen_freq, dist_freq, T.FIXED_LITLEN_COST, T.FIXED_DIST_COST
        )
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
            _emit_huffman_block(
                writer, syms, T.FIXED_LITLEN_LENGTHS, T.FIXED_DIST_LENGTHS,
                (T.FIXED_LITLEN_CODES, T.FIXED_DIST_CODES),
            )
        else:
            writer.write_bits(final | 2 << 1 | header << 3, 3 + header_bits)
            _emit_huffman_block(writer, syms, dyn_litlen, dyn_dist)

    return writer.getvalue()
