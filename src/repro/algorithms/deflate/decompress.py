"""DEFLATE decompressor (inflate, RFC 1951).

Handles arbitrary multi-block streams with stored, fixed-Huffman, and
dynamic-Huffman blocks, including overlapping back-references.  Designed
to inflate streams from *any* conforming compressor (tested against the
Python stdlib's zlib as an independent producer).
"""

from __future__ import annotations

from repro.algorithms import huffman
from repro.algorithms.deflate import tables as T
from repro.errors import CorruptStreamError, OutputOverflowError
from repro.obs.profile import get_profiler
from repro.util.bitio import BitReader

__all__ = ["deflate_decompress"]

_CLCODE_ORDER = T.CLCODE_ORDER.tolist()
_NO_DIST_TABLE = (0,)  # every lookup misses: a block without distance codes
_NO_LIMIT = float("inf")

_FIXED_LITLEN_DECODER: huffman.HuffmanDecoder | None = None
_FIXED_DIST_DECODER: huffman.HuffmanDecoder | None = None


def _fixed_decoders() -> tuple[huffman.HuffmanDecoder, huffman.HuffmanDecoder]:
    global _FIXED_LITLEN_DECODER, _FIXED_DIST_DECODER
    if _FIXED_LITLEN_DECODER is None:
        _FIXED_LITLEN_DECODER = huffman.HuffmanDecoder(T.FIXED_LITLEN_LENGTHS)
        _FIXED_DIST_DECODER = huffman.HuffmanDecoder(T.FIXED_DIST_LENGTHS)
    assert _FIXED_DIST_DECODER is not None
    return _FIXED_LITLEN_DECODER, _FIXED_DIST_DECODER


def _read_dynamic_trees(
    reader: BitReader,
) -> tuple[huffman.HuffmanDecoder, huffman.HuffmanDecoder | None]:
    """Parse the dynamic block header (RFC 1951 §3.2.7)."""
    counts = reader.read_bits(14)
    hlit = (counts & 31) + 257
    hdist = (counts >> 5 & 31) + 1
    hclen = (counts >> 10) + 4
    if hlit > 286 or hdist > 30:
        raise CorruptStreamError("too many length or distance symbols")

    packed = reader.read_bits(3 * hclen)
    cl_lengths = [0] * 19
    for slot in _CLCODE_ORDER[:hclen]:
        cl_lengths[slot] = packed & 7
        packed >>= 3
    lengths = _read_code_lengths(reader, huffman.HuffmanDecoder(cl_lengths),
                                 hlit + hdist)

    if lengths[T.END_OF_BLOCK] == 0:
        raise CorruptStreamError("dynamic block has no end-of-block code")
    litlen_decoder = huffman.HuffmanDecoder(lengths[:hlit])
    if not any(lengths[hlit:]):
        return litlen_decoder, None
    return litlen_decoder, huffman.HuffmanDecoder(lengths[hlit:])


def _read_code_lengths(
    reader: BitReader, cl_decoder: huffman.HuffmanDecoder, total: int
) -> "list[int]":
    """The ``total`` literal/length and distance code lengths, run-length
    coded under ``cl_decoder``.

    One loop with the repeat codes inline: reader state in locals,
    eight-byte refills, each covering one code-length code (at most 7
    bits) and its repeat field (at most 7).
    """
    table = cl_decoder.lookup
    mask = (1 << cl_decoder.max_bits) - 1
    lengths: "list[int]" = []
    append = lengths.append
    left = total
    data, pos, acc, nbits = reader.hoist()
    while left > 0:
        if nbits < 14:
            if nbits < 0:
                raise CorruptStreamError("unexpected end of bit stream")
            chunk = data[pos : pos + 8]
            acc |= int.from_bytes(chunk, "little") << nbits
            pos += len(chunk)
            nbits += len(chunk) << 3
        entry = table[acc & mask]
        if not entry:
            raise CorruptStreamError("invalid Huffman code in stream")
        used = entry >> 9
        acc >>= used
        nbits -= used
        sym = entry & 0x1FF
        if sym < 16:
            append(sym)
            left -= 1
            continue
        if sym == 16:
            if not lengths:
                raise CorruptStreamError("repeat code with no previous length")
            run = 3 + (acc & 3)
            value = lengths[-1]
            acc >>= 2
            nbits -= 2
        elif sym == 17:
            run = 3 + (acc & 7)
            value = 0
            acc >>= 3
            nbits -= 3
        else:  # sym == 18
            run = 11 + (acc & 127)
            value = 0
            acc >>= 7
            nbits -= 7
        if run > left:
            raise CorruptStreamError("code-length run overruns alphabet")
        lengths += [value] * run
        left -= run
    reader.restore(pos, acc, nbits)
    return lengths


def _inflate_block(
    reader: BitReader,
    out: bytearray,
    litlen_decoder: huffman.HuffmanDecoder,
    dist_decoder: huffman.HuffmanDecoder | None,
    max_output: int | None,
) -> None:
    """Decode one Huffman-coded block into ``out``."""
    with get_profiler().kernel("huffman.decode"):
        _inflate_block_loop(reader, out, litlen_decoder, dist_decoder,
                            max_output)


def _inflate_block_loop(
    reader: BitReader,
    out: bytearray,
    litlen_decoder: huffman.HuffmanDecoder,
    dist_decoder: huffman.HuffmanDecoder | None,
    max_output: int | None,
) -> None:
    # The hottest loop in the decompressor: reader state in locals,
    # eight-byte refills, and the match path inline, because a call per
    # match costs more than the decode it would share.  One refill covers a whole token:
    # 15 + 5 bits of length, 15 + 13 of distance.
    lit_lookup = litlen_decoder.lookup
    lit_mask = (1 << litlen_decoder.max_bits) - 1
    if dist_decoder is None:
        dist_lookup, dist_mask = _NO_DIST_TABLE, 0
    else:
        dist_lookup = dist_decoder.lookup
        dist_mask = (1 << dist_decoder.max_bits) - 1
    length_codes = T.LENGTH_TABLE
    dist_codes = T.DIST_TABLE
    limit = _NO_LIMIT if max_output is None else max_output
    append = out.append
    data, pos, acc, nbits = reader.hoist()

    while True:
        if nbits < 48:
            if nbits < 0:
                break
            chunk = data[pos : pos + 8]
            acc |= int.from_bytes(chunk, "little") << nbits
            pos += len(chunk)
            nbits += len(chunk) << 3
        entry = lit_lookup[acc & lit_mask]
        if not entry:
            raise CorruptStreamError("invalid literal/length code")
        used = entry >> 9
        acc >>= used
        nbits -= used
        sym = entry & 0x1FF
        if sym < 256:
            append(sym)
            continue
        if sym == 256:
            break
        if sym > 285:
            raise CorruptStreamError(f"invalid length symbol {sym}")
        length, extra = length_codes[sym - 257]
        if extra:
            length += acc & ((1 << extra) - 1)
            acc >>= extra
            nbits -= extra
        entry = dist_lookup[acc & dist_mask]
        if not entry:
            if dist_decoder is None:
                raise CorruptStreamError("match in block with empty distance tree")
            raise CorruptStreamError("invalid distance code")
        used = entry >> 9
        acc >>= used
        nbits -= used
        # Symbols 0..29 only: HDIST is capped at 30 and the fixed tree
        # has 30 codes.
        dist, extra = dist_codes[entry & 0x1FF]
        if extra:
            dist += acc & ((1 << extra) - 1)
            acc >>= extra
            nbits -= extra
        if nbits < 0:
            break
        start = len(out) - dist
        if start < 0:
            raise CorruptStreamError("back-reference before start of output")
        if dist >= length:
            out += out[start : start + length]
        else:
            # Overlapping copy: the last `dist` bytes repeat.
            out += (out[start:] * (length // dist + 1))[:length]
        if len(out) > limit:
            break
    reader.restore(pos, acc, nbits)
    # Literals are not counted one by one: a block's literals cannot
    # outnumber its input bits, so the overshoot is bounded by the input.
    if len(out) > limit:
        raise OutputOverflowError(
            f"decompressed output exceeds limit of {max_output} bytes"
        )


def deflate_decompress(
    data: bytes, max_output: int | None = None
) -> bytes:
    """Inflate a raw DEFLATE stream.

    Parameters
    ----------
    data:
        The compressed stream (no zlib/gzip wrapper).
    max_output:
        Optional safety bound on the decompressed size; exceeding it
        raises :class:`~repro.errors.OutputOverflowError`.
    """
    with get_profiler().kernel("deflate.decompress"):
        return _deflate_decompress(data, max_output)


def _deflate_decompress(data: bytes, max_output: int | None) -> bytes:
    reader = BitReader(data)
    out = bytearray()
    while True:
        bfinal = reader.read_bits(1)
        btype = reader.read_bits(2)
        if btype == 0:
            reader.align_to_byte()
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
            litlen_decoder, dist_decoder = _fixed_decoders()
            _inflate_block(reader, out, litlen_decoder, dist_decoder, max_output)
        elif btype == 2:
            litlen_decoder, dist_decoder = _read_dynamic_trees(reader)
            _inflate_block(reader, out, litlen_decoder, dist_decoder, max_output)
        else:
            raise CorruptStreamError("reserved block type 3")
        if bfinal:
            return bytes(out)
