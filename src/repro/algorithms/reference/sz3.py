"""Per-element twins of the SZ3 predictor and quantizer kernels, and
the residual decoder's twin.

The classic sequential SZ shape, one sample at a time: the Lorenzo
sweep of :mod:`repro.algorithms.sz3.predictor` and the grid map of
:mod:`repro.algorithms.sz3.quantizer`.  The whole-array production
kernels must match them bit for bit.  :func:`decode_residuals` is the
entropy stage's decoder as a Huffman symbol run that stops at each
escape and two 32-bit reads after it; production fuses the two into
one loop and must return the same values and raise the same error
classes.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.algorithms import huffman
from repro.algorithms.sz3.encoder import _ALPHABET, _ESCAPE, _U64, _unzigzag
from repro.errors import CorruptStreamError
from repro.util.bitio import BitReader
from repro.util.framing import Reader

__all__ = ["lorenzo_residual", "lorenzo_reconstruct", "quantize", "dequantize",
           "decode_run", "decode_residuals"]


def lorenzo_residual(codes: np.ndarray) -> np.ndarray:
    """Per-element twin of ``predictor._lorenzo_residual`` — the classic
    sequential Lorenzo sweep, one sample at a time.  Integer arithmetic
    is exact, so the result matches the vectorized successive-diff
    formulation bit for bit in any dimension count."""
    res = np.asarray(codes, dtype=np.int64)
    for axis in range(res.ndim):
        out = np.empty_like(res)
        length = res.shape[axis]
        moved = np.moveaxis(res, axis, 0)
        out_moved = np.moveaxis(out, axis, 0)
        for k in range(length - 1, -1, -1):
            for idx in np.ndindex(moved.shape[1:]):
                prev = moved[(k - 1,) + idx] if k > 0 else np.int64(0)
                out_moved[(k,) + idx] = moved[(k,) + idx] - prev
        res = out
    return res


def lorenzo_reconstruct(res: np.ndarray) -> np.ndarray:
    """Per-element twin of ``predictor._lorenzo_reconstruct``."""
    codes = np.asarray(res, dtype=np.int64)
    for axis in reversed(range(codes.ndim)):
        out = np.empty_like(codes)
        length = codes.shape[axis]
        moved = np.moveaxis(codes, axis, 0)
        out_moved = np.moveaxis(out, axis, 0)
        for k in range(length):
            for idx in np.ndindex(moved.shape[1:]):
                prev = out_moved[(k - 1,) + idx] if k > 0 else np.int64(0)
                out_moved[(k,) + idx] = prev + moved[(k,) + idx]
        codes = out
    return codes


def quantize(data: np.ndarray, pitch: float) -> np.ndarray:
    """Per-element twin of ``quantizer._quantize`` (classic sequential SZ
    shape).  Uses numpy *scalar* ops so rounding and the NaN/Inf →
    ``int64`` cast behave exactly like the whole-array kernel."""
    flat = np.asarray(data).reshape(-1)
    out = np.empty(flat.size, dtype=np.int64)
    for i in range(flat.size):
        out[i] = np.rint(np.float64(flat[i]) / pitch).astype(np.int64)
    return out.reshape(np.asarray(data).shape)


def dequantize(
    codes: np.ndarray, pitch: float, dtype: np.dtype
) -> np.ndarray:
    """Per-element twin of ``quantizer._dequantize``."""
    flat = np.asarray(codes).reshape(-1)
    out = np.empty(flat.size, dtype=dtype)
    for i in range(flat.size):
        out[i] = (np.float64(flat[i]) * pitch).astype(dtype)
    return out.reshape(np.asarray(codes).shape)


def decode_run(
    decoder: huffman.HuffmanDecoder, reader: BitReader, out, count: int, stop: int
) -> int:
    """Decode symbols below ``stop`` onto ``out`` until one is not.

    Appends at most ``count`` symbols.  Returns the first symbol that is
    ``>= stop`` (consumed, not appended — the caller reads whatever
    follows it from ``reader``) or -1 once ``count`` were appended.

    The reader's state lives in locals for the length of the run and is
    refilled eight bytes at a time; past the end of the input the refill
    supplies zero bits and ``nbits`` goes negative once one of them is
    consumed, which is checked before any refill and on the way out.
    """
    table = decoder.lookup
    mask = (1 << decoder.max_bits) - 1
    longest_code = huffman.MAX_CODE_BITS
    append = out.append
    data, pos, acc, nbits = reader.hoist()
    for _ in range(count):
        if nbits < longest_code:
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
        if sym >= stop:
            break
        append(sym)
    else:
        sym = -1
    reader.restore(pos, acc, nbits)
    return sym


def decode_residuals(payload: bytes) -> np.ndarray:
    """Twin of ``encoder.decode_residuals``: :func:`decode_run` up to
    each escape, then its two 32-bit fields through the reader."""
    r = Reader(payload, "SZ3 entropy payload")
    (n,) = r.unpack(_U64, "value count")
    lengths = np.frombuffer(r.take(_ALPHABET, "code lengths"), dtype=np.uint8)
    (nbits,) = r.unpack(_U64, "bit count")
    bitstream = r.rest()
    if len(bitstream) * 8 < nbits:
        raise CorruptStreamError("SZ3 bitstream shorter than declared")
    if n > nbits:
        raise CorruptStreamError("SZ3 entropy payload declares more values than bits")
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    decoder = huffman.HuffmanDecoder(lengths)
    reader = BitReader(bitstream)
    out = array("Q")
    while len(out) < n:
        sym = decode_run(decoder, reader, out, n - len(out), stop=_ESCAPE)
        if sym == _ESCAPE:
            lo = reader.read_bits(32)
            out.append(reader.read_bits(32) << 32 | lo)
    return _unzigzag(np.frombuffer(out, dtype=np.uint64))
