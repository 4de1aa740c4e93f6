"""SZ3 stage 4 — entropy encoder for prediction residuals.

Residuals are zigzag-mapped to unsigned integers and coded with a
canonical Huffman code over a 255-symbol alphabet: values 0..253 code
directly, symbol 254 is an *escape* followed by the raw 64-bit zigzag
value (split into two 32-bit fields).  Smooth scientific data produces
almost exclusively small residuals, so escapes are rare; the escape path
keeps the codec total (any ``int64`` residual round-trips).

Encoding is fully vectorised via
:meth:`repro.util.bitio.BitWriter.write_code_array`; decoding is one
loop that reads each escape's fields off its bit accumulator.

Payload layout::

    u64 n_values
    u8[255] code lengths (0 = unused symbol)
    u64 payload bit count
    bitstream (zero-padded to a byte)
"""

from __future__ import annotations

import struct
from array import array

import numpy as np

from repro.algorithms import huffman
from repro.errors import CorruptStreamError
from repro.util.bitio import BitWriter
from repro.util.framing import Reader

__all__ = ["encode_residuals", "decode_residuals", "max_payload_bytes"]

_ESCAPE = 254
_ALPHABET = 255
_MAX_BITS = 15
_U64 = struct.Struct("<Q")


def max_payload_bytes(n: int) -> int:
    """Longest payload :func:`encode_residuals` writes for ``n`` values:
    the head, and a 15-bit code plus a 64-bit escape field per value."""
    return 8 + _ALPHABET + 8 + -(-(_MAX_BITS + 64) * n // 8)


def _zigzag(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.int64)
    return ((v << np.int64(1)) ^ (v >> np.int64(63))).astype(np.uint64)


def _unzigzag(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64)
    return ((z >> np.uint64(1)) ^ (np.uint64(0) - (z & np.uint64(1)))).astype(np.int64)


def encode_residuals(residuals: np.ndarray) -> bytes:
    """Entropy-code an ``int64`` residual array."""
    flat = residuals.reshape(-1)
    n = flat.size
    z = _zigzag(flat)
    is_escape = z >= _ESCAPE
    syms = np.where(is_escape, np.uint64(_ESCAPE), z).astype(np.int64)

    freq = np.bincount(syms, minlength=_ALPHABET)
    lengths = huffman.code_lengths(freq, _MAX_BITS)
    codes = huffman.lsb_codes(lengths)

    # Field matrix: symbol code, escape low 32 bits, escape high 32 bits.
    fields_codes = np.zeros((n, 3), dtype=np.uint32)
    fields_bits = np.zeros((n, 3), dtype=np.int64)
    fields_codes[:, 0] = codes[syms]
    fields_bits[:, 0] = lengths[syms]
    if is_escape.any():
        esc = z[is_escape]
        fields_codes[is_escape, 1] = (esc & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        fields_bits[is_escape, 1] = 32
        fields_codes[is_escape, 2] = (esc >> np.uint64(32)).astype(np.uint32)
        fields_bits[is_escape, 2] = 32

    writer = BitWriter()
    writer.write_code_array(fields_codes.reshape(-1), fields_bits.reshape(-1))
    bitstream = writer.getvalue()
    nbits = writer.bit_length

    out = bytearray()
    out += _U64.pack(n)
    out += lengths.astype(np.uint8).tobytes()
    out += _U64.pack(nbits)
    out += bitstream
    return bytes(out)


def decode_residuals(payload: bytes) -> np.ndarray:
    """Inverse of :func:`encode_residuals`; returns a flat ``int64`` array."""
    r = Reader(payload, "SZ3 entropy payload")
    (n,) = r.unpack(_U64, "value count")
    lengths = np.frombuffer(r.take(_ALPHABET, "code lengths"), dtype=np.uint8)
    (nbits,) = r.unpack(_U64, "bit count")
    bitstream = r.rest()
    if len(bitstream) * 8 < nbits:
        raise CorruptStreamError("SZ3 bitstream shorter than declared")

    if n > nbits:
        # Every value costs at least one bit; a header that claims more
        # would have the decoder allocate for values that cannot exist.
        raise CorruptStreamError("SZ3 entropy payload declares more values than bits")
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    # Reader state in locals; a refill to >= 79 bits covers a code and
    # the escape field behind it.  Past the end it adds zero bits and
    # ``nbits`` goes negative: checked before any refill and at the end.
    table = [(entry >> 9, entry & 0x1FF)
             for entry in huffman.HuffmanDecoder(lengths).lookup]
    mask = len(table) - 1
    out = array("Q", [0]) * n
    pos = acc = nbits = 0
    for i in range(n):
        if nbits < 79:
            if nbits < 0:
                break
            chunk = bitstream[pos : pos + 16]
            acc |= int.from_bytes(chunk, "little") << nbits
            pos += len(chunk)
            nbits += len(chunk) << 3
        used, sym = table[acc & mask]
        if not used:
            raise CorruptStreamError("invalid Huffman code in stream")
        acc >>= used
        if sym == _ESCAPE:
            out[i] = acc & 0xFFFF_FFFF_FFFF_FFFF
            acc >>= 64
            nbits -= used + 64
        else:
            out[i] = sym
            nbits -= used
    if nbits < 0:
        raise CorruptStreamError("unexpected end of bit stream")
    return _unzigzag(np.frombuffer(out, dtype=np.uint64))
