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
from repro.errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    OutputOverflowError,
)
from repro.util.xxhash32 import xxh32

__all__ = ["lz4_compress", "lz4_decompress", "MAGIC"]

MAGIC = 0x184D2204
_UNCOMPRESSED_FLAG = 0x80000000

# Block-max-size table: code 4..7 => 64 KiB, 256 KiB, 1 MiB, 4 MiB.
_BLOCK_SIZES = {4: 64 << 10, 5: 256 << 10, 6: 1 << 20, 7: 4 << 20}
_DEFAULT_BD_CODE = 7


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
    descriptor = bytes([flg, bd]) + struct.pack("<Q", len(data))
    hc = (xxh32(descriptor) >> 8) & 0xFF

    out = bytearray()
    out += struct.pack("<I", MAGIC)
    out += descriptor
    out.append(hc)

    for start in range(0, len(data), block_size):
        chunk = data[start : start + block_size]
        compressed = lz4_block_compress(chunk, config)
        if len(compressed) < len(chunk):
            out += struct.pack("<I", len(compressed))
            out += compressed
        else:
            out += struct.pack("<I", len(chunk) | _UNCOMPRESSED_FLAG)
            out += chunk

    out += struct.pack("<I", 0)  # end mark
    out += struct.pack("<I", xxh32(data))
    return bytes(out)


def lz4_decompress(frame: bytes, max_output: int | None = None) -> bytes:
    """Decompress a standalone LZ4 frame produced by :func:`lz4_compress`."""
    if len(frame) < 7:
        raise CorruptStreamError("LZ4 frame shorter than its header")
    (magic,) = struct.unpack_from("<I", frame, 0)
    if magic != MAGIC:
        raise CorruptStreamError(f"bad LZ4 magic 0x{magic:08x}")
    flg = frame[4]
    if (flg >> 6) != 1:
        raise CorruptStreamError("unsupported LZ4 frame version")
    has_content_size = bool(flg & (1 << 3))
    has_content_checksum = bool(flg & (1 << 2))
    has_block_checksum = bool(flg & (1 << 4))
    if flg & 0x03:
        raise CorruptStreamError("reserved FLG bits set")

    pos = 6
    expected_size: int | None = None
    if has_content_size:
        if len(frame) < pos + 8:
            raise CorruptStreamError("truncated content-size field")
        (expected_size,) = struct.unpack_from("<Q", frame, pos)
        pos += 8
    descriptor = frame[4:pos]
    if pos >= len(frame):
        raise CorruptStreamError("truncated frame descriptor")
    hc = frame[pos]
    pos += 1
    if hc != (xxh32(descriptor) >> 8) & 0xFF:
        raise ChecksumMismatchError("LZ4 header", hc, (xxh32(descriptor) >> 8) & 0xFF)
    if (max_output is not None and expected_size is not None
            and expected_size > max_output):
        raise OutputOverflowError(
            f"declared content size {expected_size} exceeds max_output {max_output}"
        )

    out = bytearray()
    while True:
        if len(frame) < pos + 4:
            raise CorruptStreamError("truncated block size field")
        (raw_size,) = struct.unpack_from("<I", frame, pos)
        pos += 4
        if raw_size == 0:
            break
        stored = bool(raw_size & _UNCOMPRESSED_FLAG)
        size = raw_size & ~_UNCOMPRESSED_FLAG
        if len(frame) < pos + size:
            raise CorruptStreamError("truncated block payload")
        payload = frame[pos : pos + size]
        pos += size
        if has_block_checksum:
            # Never emitted here, but another encoder's frame may carry
            # them: xxh32 of the block as stored in the frame.
            if len(frame) < pos + 4:
                raise CorruptStreamError("truncated block checksum")
            (stored_sum,) = struct.unpack_from("<I", frame, pos)
            pos += 4
            actual = xxh32(payload)
            if stored_sum != actual:
                raise ChecksumMismatchError("LZ4 block xxh32", stored_sum, actual)
        remaining = None if max_output is None else max_output - len(out)
        if stored:
            if remaining is not None and size > remaining:
                raise OutputOverflowError("LZ4 output exceeds limit")
            out += payload
        else:
            out += lz4_block_decompress(payload, max_output=remaining)

    data = bytes(out)
    if has_content_checksum:
        if len(frame) < pos + 4:
            raise CorruptStreamError("truncated content checksum")
        (stored_sum,) = struct.unpack_from("<I", frame, pos)
        actual = xxh32(data)
        if stored_sum != actual:
            raise ChecksumMismatchError("xxh32", stored_sum, actual)
    if expected_size is not None and expected_size != len(data):
        raise CorruptStreamError(
            f"content size mismatch: header says {expected_size}, got {len(data)}"
        )
    return data
