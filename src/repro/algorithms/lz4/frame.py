"""LZ4 frame format (v1.6.x container spec).

Layout produced here::

    magic (4B, 0x184D2204 LE)
    FLG   (version=01, block-independence=1, content-checksum=1,
           content-size=1)
    BD    (block max size code)
    content size (8B LE)
    HC    (byte 1 of xxh32 of the descriptor)
    [ block: 4B LE size, high bit set => stored uncompressed ] ...
    end mark (4B zero)
    content checksum (xxh32 of the uncompressed data, 4B LE)

Per-block compression falls back to stored form whenever the LZ4 block
would not shrink the data (the spec's uncompressed-block flag).
"""

from __future__ import annotations

import struct

from repro.algorithms.lz4.block import (
    Lz4Config,
    lz4_block_compress,
    lz4_block_decompress,
)
from repro.errors import CorruptStreamError
from repro.util.framing import Reader, cap, verify
from repro.util.xxhash32 import xxh32

__all__ = ["lz4_compress", "lz4_decompress", "MAGIC"]

MAGIC = 0x184D2204
_MAGIC_BYTES = MAGIC.to_bytes(4, "little")
_UNCOMPRESSED_FLAG = 0x80000000
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

# Block-max-size table: code 4..7 => 64 KiB, 256 KiB, 1 MiB, 4 MiB.
_BLOCK_SIZES = {4: 64 << 10, 5: 256 << 10, 6: 1 << 20, 7: 4 << 20}
_DEFAULT_BD_CODE = 7

# 15-byte header (magic, FLG, BD, content size, HC) that passed every
# check -> (FLG, content size).  Only headers carrying the content size
# are 15 bytes long, so a 15-byte match is a whole header.  Frames of
# one size share a header: a stream of equal-sized messages parses and
# hashes it once.  The memo starts over past _MEMO_KEYS entries.
_MEMO_KEYS = 256
_CHECKED: "dict[bytes, tuple[int, int]]" = {}
_SIZED_HEADER_BYTES = 15


def lz4_compress(
    data: bytes,
    config: Lz4Config | None = None,
    block_size_code: int = _DEFAULT_BD_CODE,
) -> bytes:
    """Compress ``data`` into a standalone LZ4 frame."""
    if block_size_code not in _BLOCK_SIZES:
        raise ValueError(f"block_size_code must be one of {sorted(_BLOCK_SIZES)}")
    block_size = _BLOCK_SIZES[block_size_code]

    flg = (1 << 6) | (1 << 5) | (1 << 3) | (1 << 2)  # v01, B.Indep, C.Size, C.Checksum
    bd = block_size_code << 4
    descriptor = bytes([flg, bd]) + _U64.pack(len(data))
    out = bytearray(_MAGIC_BYTES + descriptor)
    out.append((xxh32(descriptor) >> 8) & 0xFF)  # HC

    for start in range(0, len(data), block_size):
        chunk = data[start : start + block_size]
        compressed = lz4_block_compress(chunk, config)
        if len(compressed) < len(chunk):
            out += _U32.pack(len(compressed))
            out += compressed
        else:
            out += _U32.pack(len(chunk) | _UNCOMPRESSED_FLAG)
            out += chunk

    out += _U32.pack(0)  # end mark
    out += _U32.pack(xxh32(data))
    return bytes(out)


def lz4_decompress(frame: bytes, max_output: int | None = None) -> bytes:
    """Decompress a standalone LZ4 frame produced by :func:`lz4_compress`.

    The frame ends after its content checksum (or end mark): anything
    after it, such as a second frame, is a trailing-bytes error.
    """
    r = Reader(frame, "LZ4 frame")
    flg, expected_size = _read_header(r)
    if expected_size is not None:
        cap(expected_size, max_output, "LZ4 frame")

    out = bytearray()
    while True:
        (raw_size,) = r.unpack(_U32, "block size field")
        if raw_size == 0:
            break
        size = raw_size & ~_UNCOMPRESSED_FLAG
        payload = r.take(size, "block payload")
        if flg & (1 << 4):
            # Never emitted here, but another encoder's frame may carry
            # them: xxh32 of the block as stored in the frame.
            (stored_sum,) = r.unpack(_U32, "block checksum")
            verify("LZ4 block xxh32", stored_sum, xxh32(payload))
        remaining = None if max_output is None else max_output - len(out)
        if raw_size & _UNCOMPRESSED_FLAG:
            cap(size, remaining, "LZ4 stored block")
            out += payload
        else:
            out += lz4_block_decompress(payload, max_output=remaining)

    data = bytes(out)
    if flg & (1 << 2):
        (stored_sum,) = r.unpack(_U32, "content checksum")
        verify("xxh32", stored_sum, xxh32(data))
    r.end()
    if expected_size is not None and expected_size != len(data):
        raise CorruptStreamError(
            f"content size mismatch: header says {expected_size}, got {len(data)}"
        )
    return data


def _read_header(r: Reader) -> "tuple[int, int | None]":
    """Consume the frame header; returns ``(FLG, content size or None)``."""
    head = bytes(r.blob[:_SIZED_HEADER_BYTES])
    checked = _CHECKED.get(head)
    if checked is not None:
        r.pos = _SIZED_HEADER_BYTES
        return checked
    r.magic(_MAGIC_BYTES)
    flg, _bd = r.take(2, "frame descriptor")
    if (flg >> 6) != 1:
        raise CorruptStreamError("unsupported LZ4 frame version")
    if flg & 0x03:
        raise CorruptStreamError("reserved FLG bits set")
    expected_size = r.unpack(_U64, "content-size field")[0] if flg & (1 << 3) else None
    descriptor = bytes(r.blob[4:r.pos])
    hc = r.take(1, "header checksum")[0]
    verify("LZ4 header", hc, (xxh32(descriptor) >> 8) & 0xFF)
    if expected_size is not None:
        if len(_CHECKED) >= _MEMO_KEYS:
            _CHECKED.clear()
        _CHECKED[head] = (flg, expected_size)
    return flg, expected_size
