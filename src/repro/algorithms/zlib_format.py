"""zlib stream format (RFC 1950) over raw DEFLATE.

zlib = 2-byte header (CMF/FLG) + DEFLATE payload + 4-byte big-endian
Adler-32 of the *uncompressed* data.  This split is exactly what PEDAL's
hybrid zlib design exploits (paper Fig. 3): the header/trailer
computation stays on the SoC while the DEFLATE payload is produced by
the C-Engine.  The functions here therefore expose the header/trailer
pieces separately in addition to the one-shot codec.
"""

from __future__ import annotations

import struct

from repro.algorithms.deflate import DeflateConfig, deflate_compress, deflate_decompress
from repro.errors import CorruptStreamError
from repro.util.checksums import adler32
from repro.util.framing import Reader, verify

__all__ = [
    "zlib_compress",
    "zlib_decompress",
    "build_zlib_header",
    "build_zlib_trailer",
    "parse_zlib_header",
    "split_zlib_stream",
    "assemble_zlib_stream",
]

_CM_DEFLATE = 8
_CINFO_32K = 7  # 32 KiB window
_CMF_FLG = struct.Struct("BB")
_ADLER = struct.Struct(">I")


def build_zlib_header(level_hint: int = 2) -> bytes:
    """Construct the CMF/FLG pair.

    ``level_hint`` is the 2-bit FLEVEL advisory field (0=fastest..3=max).
    FCHECK is chosen so the 16-bit header is a multiple of 31 (RFC 1950).
    """
    if not 0 <= level_hint <= 3:
        raise ValueError("level_hint must be in 0..3")
    cmf = (_CINFO_32K << 4) | _CM_DEFLATE
    flg = level_hint << 6  # FDICT=0
    rem = (cmf * 256 + flg) % 31
    if rem:
        flg += 31 - rem
    return bytes([cmf, flg])


def build_zlib_trailer(data: bytes) -> bytes:
    """Big-endian Adler-32 of the uncompressed data."""
    return adler32(data).to_bytes(4, "big")


def parse_zlib_header(stream: bytes) -> int:
    """Validate the 2-byte header; return the advisory FLEVEL."""
    cmf, flg = Reader(stream, "zlib").unpack(_CMF_FLG)
    if cmf & 0x0F != _CM_DEFLATE:
        raise CorruptStreamError(f"unsupported zlib compression method {cmf & 0x0F}")
    if (cmf >> 4) > 7:
        raise CorruptStreamError("invalid zlib window size (CINFO > 7)")
    if (cmf * 256 + flg) % 31 != 0:
        raise CorruptStreamError("zlib header FCHECK failure")
    if flg & 0x20:
        raise CorruptStreamError("preset dictionaries (FDICT) are not supported")
    return flg >> 6


def split_zlib_stream(stream: bytes) -> tuple[bytes, int]:
    """Validate the framing; return (DEFLATE payload, stored Adler-32)."""
    r = Reader(stream, "zlib")
    parse_zlib_header(r.take(_CMF_FLG.size, "header"))
    payload = r.rest(trailer=_ADLER.size)
    return payload, r.unpack(_ADLER, "Adler-32 trailer")[0]


def assemble_zlib_stream(deflate_payload: bytes, header: bytes, trailer: bytes) -> bytes:
    """Concatenate independently produced header/payload/trailer.

    This is the assembly step of the SoC+C-Engine hybrid path.
    """
    return header + deflate_payload + trailer


def zlib_compress(data: bytes, config: DeflateConfig | None = None) -> bytes:
    """One-shot zlib compression (header + DEFLATE + Adler-32)."""
    return assemble_zlib_stream(
        deflate_compress(data, config),
        build_zlib_header(),
        build_zlib_trailer(data),
    )


def zlib_decompress(stream: bytes, max_output: int | None = None) -> bytes:
    """One-shot zlib decompression with Adler-32 verification."""
    payload, stored = split_zlib_stream(stream)
    data = deflate_decompress(payload, max_output=max_output)
    verify("adler32", stored, adler32(data))
    return data
