"""Decompression bombs: small containers that claim or expand to far more
than their caller is entitled to.

One row per container and nesting level.  Each row names the stream,
the decoder, and the cap the decoder derives (or is given); the decode
must end in ``OutputOverflowError`` with a ``tracemalloc`` peak of at
most ``2 * cap + 1 MiB``.

The SZ3R rows declare a one-value float32 field, so the entropy payload
may be at most ``encoder.max_payload_bytes(1)`` = 281 bytes, and carry
a backend blob that expands to 16 MiB.  ``sz3r-deflate-16m`` is the
16 343-byte stream (raw DEFLATE of 16 MiB of zeros at zlib level 9) that
inflated all 16 MiB before the shape-derived cap was passed down; the
others wrap the same expansion in each remaining lossless backend: a
zstd-lite container around it and an LZ4 frame of sixteen 1 MiB zero
blocks without a content size (so only the per-block cap can stop it).
The ``ac`` and ``none`` rows carry a one-value payload with 16 KiB of
padding behind its bitstream, coded and as is: uncapped, both decode.

``pedal-deflate-16m`` is the same raw DEFLATE expansion behind a PEDAL
header, decoded by a ``PedalContext`` whose ``max_message_bytes`` is
64 KiB: the context's decode cap, not the SZ3R shape, must stop it.
"""

from __future__ import annotations

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.algorithms.ac import ac_compress
from repro.algorithms.lz4 import lz4_block_compress
from repro.algorithms.sz3 import SZ3Config, encoder, lossless, sz3_compress, sz3_decompress
from repro.core.api import PedalConfig, PedalContext
from repro.dpu import make_device
from repro.dpu.specs import Algo
from repro.errors import OutputOverflowError
from repro.plan.header import PedalHeader
from repro.sim import Environment
from repro.util.xxhash32 import xxh32

MIB = 1 << 20
BOMB_BYTES = 16 * MIB


def _zero_deflate() -> bytes:
    packer = zlib.compressobj(9, zlib.DEFLATED, -15)
    return packer.compress(bytes(BOMB_BYTES)) + packer.flush()


def _zero_lz4_frame() -> bytes:
    """An LZ4 frame of sixteen 1 MiB blocks of zeros, no content size
    and no checksum (FLG: version 01, independent blocks; BD: 1 MiB)."""
    descriptor = bytes([0x60, 6 << 4])
    block = lz4_block_compress(bytes(MIB))
    return (struct.pack("<I", 0x184D2204) + descriptor
            + bytes([xxh32(descriptor) >> 8 & 0xFF])
            + (struct.pack("<I", len(block)) + block) * 16 + bytes(4))


def _padded_payload() -> bytes:
    """A valid entropy payload of one value with 16 KiB of padding behind
    its bitstream: it decodes to that one value when nothing caps it."""
    return encoder.encode_residuals(np.zeros(1, dtype=np.int64)) + bytes(16 << 10)


def _sz3r(backend: str, blob: bytes) -> bytes:
    """An SZ3R stream of one float32 value whose backend blob is ``blob``."""
    head = sz3_compress(np.zeros(1, dtype=np.float32), SZ3Config(backend="none"))
    head = head[: 4 + 5 + 8 + 8]  # magic, ids, shape, error bound
    head = head[:8] + bytes([lossless.BACKEND_IDS[backend]]) + head[9:]
    return head + struct.pack("<Q", len(blob)) + blob


def _pedal_decode(message: bytes, cap: int) -> None:
    """Decode ``message`` with a PEDAL context whose decode cap is ``cap``."""
    env = Environment()
    ctx = PedalContext(make_device(env, "bf2"), PedalConfig(max_message_bytes=cap))
    env.run(until=env.process(ctx.init()))
    env.run(until=env.process(ctx.decompress(message)))


SZ3R_CAP = encoder.max_payload_bytes(1)
PEDAL_CAP = 64 << 10

#: name -> (make stream, decode, cap)
BOMBS = {
    "sz3r-deflate-16m": (lambda: _sz3r("deflate", _zero_deflate()), sz3_decompress, SZ3R_CAP),
    "sz3r-zstdlite-16m": (
        lambda: _sz3r("zstdlite", b"ZSL1" + struct.pack("<QI", BOMB_BYTES, 0) + _zero_deflate()),
        sz3_decompress, SZ3R_CAP),
    "sz3r-lz4-16m": (lambda: _sz3r("lz4", _zero_lz4_frame()), sz3_decompress, SZ3R_CAP),
    "sz3r-ac-16k": (lambda: _sz3r("ac", ac_compress(_padded_payload())),
                    sz3_decompress, SZ3R_CAP),
    "sz3r-none-16k": (lambda: _sz3r("none", _padded_payload()), sz3_decompress, SZ3R_CAP),
    "pedal-deflate-16m": (
        lambda: PedalHeader.for_algo(Algo.DEFLATE).encode() + _zero_deflate(),
        lambda message: _pedal_decode(message, PEDAL_CAP), PEDAL_CAP),
}


def test_deflate_row_is_the_16343_byte_stream():
    make, _, _ = BOMBS["sz3r-deflate-16m"]
    stream = make()
    assert len(stream) < 16_384
    assert len(zlib.decompress(stream[33:], -15)) == BOMB_BYTES


@pytest.mark.parametrize("name", sorted(BOMBS))
def test_bomb_ends_in_a_typed_error_within_its_cap(name):
    make, decode, cap = BOMBS[name]
    stream = make()
    tracemalloc.start()
    try:
        with pytest.raises(OutputOverflowError):
            decode(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * cap + MIB, peak
