"""gzip member format (RFC 1952) over raw DEFLATE.

Completes the DEFLATE container family (zlib for in-memory streams,
gzip for files).  PEDAL itself ships zlib framing, but downstream users
of the standalone library (paper §VI, "Sharing experience with PEDAL
users") routinely need gzip-compatible output; this module provides it
over the same from-scratch DEFLATE core, interoperable with the
system's gzip tooling (verified against :mod:`gzip` in the tests).

Layout::

    magic 0x1F 0x8B | CM=8 | FLG | MTIME(4) | XFL | OS
    [optional FEXTRA/FNAME/FCOMMENT/FHCRC fields]
    DEFLATE payload
    CRC32(4, LE) | ISIZE(4, LE)
"""

from __future__ import annotations

import struct

from repro.algorithms.deflate import DeflateConfig, deflate_compress, deflate_decompress
from repro.errors import CorruptStreamError
from repro.util.checksums import crc32
from repro.util.framing import Reader, verify

__all__ = ["gzip_compress", "gzip_decompress"]

_MAGIC = b"\x1f\x8b"
_CM_DEFLATE = 8
_OS_UNIX = 3
_HEADER = struct.Struct("<BBIBB")  # CM, FLG, MTIME, XFL, OS
_U16 = struct.Struct("<H")
_TRAILER = struct.Struct("<II")  # CRC32, ISIZE

_FTEXT = 1 << 0
_FHCRC = 1 << 1
_FEXTRA = 1 << 2
_FNAME = 1 << 3
_FCOMMENT = 1 << 4


def gzip_compress(
    data: bytes,
    config: DeflateConfig | None = None,
    filename: str | None = None,
    mtime: int = 0,
) -> bytes:
    """Compress ``data`` into a single gzip member.

    ``mtime`` defaults to 0 (no timestamp) so output is deterministic.
    """
    flg = _FNAME if filename else 0
    out = bytearray(_MAGIC)
    out += _HEADER.pack(_CM_DEFLATE, flg, mtime & 0xFFFFFFFF, 0, _OS_UNIX)
    if filename:
        out += filename.encode("latin-1") + b"\x00"
    out += deflate_compress(data, config)
    out += _TRAILER.pack(crc32(data), len(data) & 0xFFFFFFFF)
    return bytes(out)


def gzip_decompress(blob: bytes, max_output: int | None = None) -> bytes:
    """Decompress one gzip member, verifying CRC32 and ISIZE."""
    r = Reader(blob, "gzip")
    r.magic(_MAGIC)
    cm, flg, _mtime, _xfl, _os = r.unpack(_HEADER)
    if cm != _CM_DEFLATE:
        raise CorruptStreamError(f"unsupported gzip method {cm}")
    if flg & 0xE0:
        raise CorruptStreamError("reserved gzip FLG bits set")
    if flg & _FEXTRA:
        r.take(r.unpack(_U16, "FEXTRA length")[0], "FEXTRA")
    # NUL-terminated fields: with no NUL, find() gives -1, a negative length.
    for flag, what in ((_FNAME, "FNAME"), (_FCOMMENT, "FCOMMENT")):
        if flg & flag:
            r.take(blob.find(b"\x00", r.pos) + 1 - r.pos, what)
    if flg & _FHCRC:
        header_crc = crc32(blob[:r.pos]) & 0xFFFF
        verify("gzip header", r.unpack(_U16, "FHCRC")[0], header_crc)

    data = deflate_decompress(r.rest(trailer=_TRAILER.size), max_output=max_output)
    stored_crc, isize = r.unpack(_TRAILER, "trailer")
    verify("gzip crc32", stored_crc, crc32(data))
    if isize != len(data) & 0xFFFFFFFF:
        raise CorruptStreamError(
            f"gzip ISIZE mismatch: header {isize}, actual {len(data)}"
        )
    return data
