"""zstd-lite — a fast LZ + Huffman codec standing in for zstd.

The real SZ3 defaults to zstd for its final lossless stage.  zstd itself
(FSE/tANS entropy stage, multi-table sequences) is out of scope, but the
*role* it plays in the paper — a lossless backend distinctly faster than
DEFLATE-on-SoC at a similar ratio class (paper §V-C.2 uses this to
explain why BF3's SoC beats its C-Engine path on SZ3) — is preserved:
this codec runs a greedy, shallow-chain matcher (no lazy evaluation)
feeding the same bulk Huffman machinery, roughly 3-4x faster than our
DEFLATE at a modest ratio cost.

Container format (little-endian)::

    magic  b"ZSL1"
    u64    content size
    u32    xxh32 of the content
    bytes  DEFLATE-bitstream payload produced with the fast matcher
"""

from __future__ import annotations

import struct

from repro.algorithms.deflate import DeflateConfig, deflate_compress, deflate_decompress
from repro.algorithms.lz77 import MatcherConfig
from repro.errors import CorruptStreamError
from repro.util.framing import Reader, cap, verify
from repro.util.xxhash32 import xxh32

__all__ = ["zstdlite_compress", "zstdlite_decompress", "FAST_MATCHER"]

_MAGIC = b"ZSL1"
_HEADER = struct.Struct("<QI")

FAST_MATCHER = MatcherConfig(max_chain=8, lazy=False, good_match=16)
_FAST_CONFIG = DeflateConfig(matcher=FAST_MATCHER)


def zstdlite_compress(data: bytes) -> bytes:
    """Compress ``data`` into a zstd-lite container."""
    payload = deflate_compress(data, _FAST_CONFIG)
    return _MAGIC + _HEADER.pack(len(data), xxh32(data)) + payload


def zstdlite_decompress(blob: bytes, max_output: int | None = None) -> bytes:
    """Decompress a zstd-lite container."""
    r = Reader(blob, "zstd-lite")
    r.magic(_MAGIC)
    size, checksum = r.unpack(_HEADER)
    cap(size, max_output, "zstd-lite")
    # The payload runs to the end of the blob: DEFLATE decides where it stops.
    data = deflate_decompress(r.rest(), max_output=size)
    if len(data) != size:
        raise CorruptStreamError(
            f"content size mismatch: header says {size}, got {len(data)}"
        )
    verify("xxh32", checksum, xxh32(data))
    return data
