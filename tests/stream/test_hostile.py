"""One hostile-container sweep over every RST1 decoder.

Each row damages a valid container in one way.  The one-shot
``stream_decompress``, a ``Decompressor`` fed 7 bytes at a time, the
gateway's ``StreamingSession.decompress`` and the chunk-parallel
``ParallelCompressor.decompress`` all run the one
:class:`~repro.stream.FrameReader`, so each row must raise the *same*
exception class from all four.  Also pinned here: the local decoder
decodes a chunk under a cap of its declared length, so a frame that lies
about ``raw_len`` cannot make the codec inflate past it.  The session's
chunks decode inside the gateway, which takes no per-request cap, so
there the decompression bomb is rejected only after it has inflated.
"""

from __future__ import annotations

import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from repro.core.parallel import ParallelCompressor
from repro.dpu import make_device
from repro.dpu.specs import Algo
from repro.errors import (
    StreamChecksumError,
    StreamCorruptError,
    StreamError,
    StreamTruncatedError,
)
from repro.serve import ServeConfig, ServeGateway, StreamingSession
from repro.sim import Environment
from repro.stream import (
    FRAME_HEADER_BYTES,
    STREAM_HEADER_BYTES,
    Decompressor,
    StreamConfig,
    encode_data_frame,
    encode_end_frame,
    encode_stream_header,
    stream_compress,
    stream_decompress,
)

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260806"))
CHUNK = 256
_RAW_LEN = STREAM_HEADER_BYTES + 5  # first data frame's raw_len field
_CHUNK_CRC = STREAM_HEADER_BYTES + 9  # first data frame's crc32 field
_PAYLOAD = STREAM_HEADER_BYTES + FRAME_HEADER_BYTES  # its first payload byte


def _container() -> bytes:
    rng = np.random.default_rng(BASE_SEED)
    data = rng.choice(
        np.frombuffer(b"hostile\x00", dtype=np.uint8), size=700
    ).tobytes()
    return stream_compress(data, StreamConfig(chunk_bytes=CHUNK))


def _bomb(_blob: bytes = b"") -> bytes:
    """One frame declaring raw_len 1 but carrying 4 MiB of DEFLATE zeros."""
    deflate = zlib.compressobj(9, zlib.DEFLATED, -15)
    payload = deflate.compress(bytes(4 << 20)) + deflate.flush()
    crc = zlib.crc32(b"\x00")
    return (encode_stream_header(Algo.DEFLATE, 64)
            + encode_data_frame(payload, 1, crc) + encode_end_frame(1, crc))


def _flip(pos: int, mask: int = 0xFF):
    def mutate(blob: bytes) -> bytes:
        out = bytearray(blob)
        out[pos] ^= mask
        return bytes(out)
    return mutate


def _set_u32(pos: int, value):
    def mutate(blob: bytes) -> bytes:
        out = bytearray(blob)
        old = struct.unpack_from("<I", out, pos % len(out))[0]
        struct.pack_into("<I", out, pos % len(out), value(old))
        return bytes(out)
    return mutate


# row -> (mutation, the exception class every decoder must raise; None
# where it depends on the payload and only agreement is required)
ROWS = {
    "truncated mid-frame": (
        lambda b: b[:_PAYLOAD + 5], StreamTruncatedError),
    "no end frame": (lambda b: b[:-FRAME_HEADER_BYTES], StreamTruncatedError),
    "end frame cut short": (lambda b: b[:-4], StreamTruncatedError),
    "flipped payload byte": (_flip(40, 0x01), None),
    "flipped chunk crc": (_flip(_CHUNK_CRC), StreamChecksumError),
    "flipped end crc": (_flip(-1), StreamChecksumError),
    "end total + 1": (_set_u32(-8, lambda v: v + 1), StreamCorruptError),
    "end total - 1": (_set_u32(-8, lambda v: v - 1), StreamCorruptError),
    "trailing garbage": (lambda b: b + b"\x00", StreamCorruptError),
    "raw_len > chunk_bytes": (
        _set_u32(_RAW_LEN, lambda v: CHUNK + 1), StreamCorruptError),
    "unknown algo id": (_flip(5, 0x08), StreamCorruptError),
    "decompression bomb": (_bomb, StreamCorruptError),
}


def _sliced(blob: bytes) -> bytes:
    dec = Decompressor()
    out = b"".join(dec.feed(blob[i:i + 7]) for i in range(0, len(blob), 7))
    dec.flush()
    return out


def _session(blob: bytes) -> bytes:
    env = Environment()
    gateway = ServeGateway(env, [make_device(env, "bf2")],
                           ServeConfig(max_pending=10_000))
    session = StreamingSession(gateway, chunk_bytes=CHUNK)
    return env.run(until=env.process(session.decompress(blob)))


def _parallel(blob: bytes) -> bytes:
    env = Environment()
    parallel = ParallelCompressor(make_device(env, "bf2"))
    return env.run(until=env.process(parallel.decompress(blob))).payload


DECODERS = {
    "stream_decompress": stream_decompress,
    "Decompressor 7-byte feeds": _sliced,
    "StreamingSession": _session,
    "ParallelCompressor": _parallel,
}


def test_reference_container_is_valid():
    blob = _container()
    assert {name: len(decode(blob)) for name, decode in DECODERS.items()} \
        == dict.fromkeys(DECODERS, 700)


@pytest.mark.parametrize("decoder", list(DECODERS))
@pytest.mark.parametrize("row", list(ROWS))
def test_every_decoder_raises_the_same_class(row, decoder):
    mutate, expected = ROWS[row]
    blob = mutate(_container())
    if expected is None:
        with pytest.raises(StreamError) as info:
            stream_decompress(blob)
        expected = type(info.value)
    with pytest.raises(StreamError) as info:
        DECODERS[decoder](blob)
    assert type(info.value) is expected, str(info.value)


def test_chunk_decode_is_capped_at_its_declared_length():
    blob = _bomb()
    assert len(blob) == 4118
    tracemalloc.start()
    try:
        with pytest.raises(StreamCorruptError):
            Decompressor(max_output=64).feed(blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
