"""Decoder robustness: arbitrary bytes must fail cleanly.

Every decompressor in the library is exposed to wire data; feeding them
random garbage must raise a :class:`~repro.errors.ReproError` subclass
(or, for checksum-less raw formats, return *some* bytes) — never an
unhandled exception, infinite loop, or memory blow-up.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.ac import ac_compress, ac_decompress
from repro.algorithms.deflate import deflate_compress, deflate_decompress
from repro.algorithms.gzip_format import gzip_compress, gzip_decompress
from repro.algorithms.lz4 import (lz4_block_compress, lz4_block_decompress,
                                  lz4_compress, lz4_decompress)
from repro.algorithms.sz3 import sz3_decompress
from repro.algorithms.zlib_format import zlib_compress, zlib_decompress
from repro.algorithms.zstdlite import zstdlite_compress, zstdlite_decompress
from repro.core.parallel import ParallelCompressor, ParallelConfig
from repro.dpu import make_device
from repro.errors import CorruptStreamError, OutputOverflowError, ReproError
from repro.sim import Environment


def _parallel(method: str, blob: bytes) -> bytes:
    """One chunk-parallel (RST1 DEFLATE, 8 chunks) call on a fresh device."""
    env = Environment()
    compressor = ParallelCompressor(make_device(env, "bf2"), ParallelConfig(n_chunks=8))
    return env.run(until=env.process(getattr(compressor, method)(blob))).payload


DECODERS = {
    "deflate": lambda b: deflate_decompress(b, max_output=1 << 20),
    "zlib": zlib_decompress,
    "gzip": gzip_decompress,
    "lz4_block": lambda b: lz4_block_decompress(b, max_output=1 << 20),
    "lz4_frame": lz4_decompress,
    "zstdlite": zstdlite_decompress,
    "sz3": sz3_decompress,
    "ac": lambda b: ac_decompress(b, max_output=1 << 20),
    "parallel": lambda b: _parallel("decompress", b),
}


@pytest.mark.parametrize("name", sorted(DECODERS))
@given(blob=st.binary(max_size=600))
@settings(max_examples=60, deadline=None)
def test_random_bytes_fail_cleanly(name, blob):
    try:
        DECODERS[name](blob)
    except ReproError:
        pass  # the expected outcome for garbage


#: Every byte codec whose decoder takes ``max_output``.
CAPPED_CODECS = {
    "deflate": (deflate_compress, deflate_decompress),
    "zlib": (zlib_compress, zlib_decompress),
    "gzip": (gzip_compress, gzip_decompress),
    "lz4_block": (lz4_block_compress, lz4_block_decompress),
    "lz4_frame": (lz4_compress, lz4_decompress),
    "zstdlite": (zstdlite_compress, zstdlite_decompress),
    "ac": (ac_compress, ac_decompress),
}


@pytest.mark.parametrize("name", sorted(CAPPED_CODECS))
def test_output_one_byte_over_the_cap_is_an_overflow(name):
    """Not corruption: a caller catching ``OutputOverflowError`` must
    see the same error from every codec."""
    compress, decompress = CAPPED_CODECS[name]
    data = bytes(5000)
    blob = compress(data)
    assert decompress(blob, max_output=len(data)) == data
    with pytest.raises(OutputOverflowError):
        decompress(blob, max_output=len(data) - 1)


@pytest.mark.parametrize("name", sorted(DECODERS))
def test_empty_input(name):
    try:
        result = DECODERS[name](b"")
    except ReproError:
        return
    assert result in (b"",) or getattr(result, "size", None) == 0


@given(blob=st.binary(min_size=1, max_size=400), index=st.data())
@settings(max_examples=80, deadline=None)
def test_deflate_single_bitflip_never_hangs(blob, index):
    """Flip one bit anywhere in a valid stream: decode must terminate
    quickly with either an error or some (possibly different) bytes —
    bounded by max_output so corrupted run-lengths cannot explode."""
    stream = bytearray(deflate_compress(blob))
    position = index.draw(st.integers(0, len(stream) * 8 - 1))
    stream[position // 8] ^= 1 << (position % 8)
    try:
        out = deflate_decompress(bytes(stream), max_output=len(blob) * 4 + 64)
        assert len(out) <= len(blob) * 4 + 64
    except ReproError:
        pass


@given(blob=st.binary(max_size=400), index=st.data())
@settings(max_examples=60, deadline=None)
def test_zlib_single_byteflip_never_silently_wrong(blob, index):
    """zlib is checksummed: a corrupted stream either errors or decodes
    to the original (flips in non-load-bearing bits)."""
    stream = bytearray(
        __import__("repro.algorithms.zlib_format", fromlist=["zlib_compress"])
        .zlib_compress(blob)
    )
    position = index.draw(st.integers(0, len(stream) - 1))
    stream[position] ^= 0xA5
    try:
        out = zlib_decompress(bytes(stream))
    except ReproError:
        return
    assert out == blob


@given(
    values=st.lists(
        st.floats(-1e4, 1e4, allow_nan=False, width=32), min_size=1, max_size=200
    ),
    index=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_sz3_corruption_never_crashes(values, index):
    from repro.algorithms.sz3 import SZ3Config, sz3_compress

    array = np.asarray(values, dtype=np.float32)
    stream = bytearray(sz3_compress(array, SZ3Config(error_bound=1e-2)))
    position = index.draw(st.integers(0, len(stream) - 1))
    stream[position] ^= 0xFF
    try:
        out = sz3_decompress(bytes(stream))
        assert isinstance(out, np.ndarray)
    except ReproError:
        pass


@pytest.mark.parametrize("eb", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-3])
def test_sz3_error_bound_must_be_positive_and_finite(eb):
    """The decoder refuses a stored bound outside (0, inf) — it would
    dequantize to NaN/inf or flipped signs — and the encoder never
    writes one."""
    from repro.algorithms.sz3 import SZ3Config, sz3_compress

    field = np.linspace(-1.0, 1.0, 64, dtype=np.float32)
    stream = bytearray(sz3_compress(field, SZ3Config(error_bound=1e-3)))
    eb_at = 4 + 5 + 8  # magic, five id bytes, one u64 dim
    assert struct.unpack_from("<d", stream, eb_at) == (1e-3,)
    struct.pack_into("<d", stream, eb_at, eb)
    with pytest.raises(CorruptStreamError, match="error bound"):
        sz3_decompress(bytes(stream))
    with pytest.raises((ValueError, ReproError)):
        sz3_compress(field, SZ3Config(error_bound=eb))


def test_sz3_rel_bound_resolving_to_inf_is_not_written():
    from repro.algorithms.sz3 import SZ3Config, sz3_compress

    field = np.linspace(-1e300, 1e300, 64)
    with pytest.raises(ReproError, match="error bound inf"):
        sz3_compress(field, SZ3Config(error_bound=1e300, error_mode="rel"))


# -- systematic (exhaustive, non-hypothesis) sweeps -------------------------
#
# The hypothesis suites sample the corruption space; these sweeps cover
# it exhaustively on small valid streams: *every* prefix truncation and
# *every* single-bit flip.  Truncation must always fail cleanly (or,
# for raw formats, return bytes); a bit flip in a checksummed format
# must never be silently wrong.

from repro.algorithms.deflate import DeflateConfig  # noqa: E402
from repro.algorithms.gzip_format import gzip_compress  # noqa: E402
from repro.algorithms.lz4 import lz4_block_compress, lz4_compress  # noqa: E402
from repro.algorithms.sz3 import SZ3Config, sz3_compress  # noqa: E402
from repro.algorithms.zlib_format import zlib_compress  # noqa: E402
from repro.algorithms.zstdlite import zstdlite_compress  # noqa: E402

_SWEEP_PAYLOAD = b"abcabcabc-0123456789-the quick brown fox" * 3

ENCODERS = {
    "deflate": deflate_compress,
    "zlib": zlib_compress,
    "gzip": gzip_compress,
    "lz4_block": lz4_block_compress,
    "lz4_frame": lz4_compress,
    "zstdlite": zstdlite_compress,
    "ac": ac_compress,
    "parallel": lambda data: _parallel("compress", data),
}

# Formats whose wire checksum must catch (or survive) any single flip.
CHECKSUMMED = {
    name: ENCODERS[name]
    for name in ("zlib", "gzip", "lz4_frame", "zstdlite", "ac", "parallel")
}

#: Layouts whose payload runs to the end of the blob, because the inner
#: decoder decides where it stops (see the trailing-bytes sweep).
RUNS_TO_END = {"deflate", "lz4_block", "zstdlite", "ac"}


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_every_truncation_fails_cleanly(name):
    """Chop the stream at every possible length: no hangs, no junk
    exceptions — a ReproError or (for raw formats) some bytes."""
    stream = ENCODERS[name](_SWEEP_PAYLOAD)
    decoder = DECODERS[name]
    for keep in range(len(stream)):
        try:
            out = decoder(stream[:keep])
        except ReproError:
            continue
        # Raw formats may decode a prefix; it must never exceed the
        # original (max_output bounds any run-length explosion).
        assert len(out) <= len(_SWEEP_PAYLOAD) + 64, keep


@pytest.mark.parametrize("name", sorted(CHECKSUMMED))
def test_every_single_bitflip_detected_or_harmless(name):
    """Flip each bit of a checksummed stream in turn: decode must raise
    a ReproError or return the exact original payload (a flip in a
    non-load-bearing header bit) — silent corruption is the one
    forbidden outcome."""
    stream = ENCODERS[name](_SWEEP_PAYLOAD)
    decoder = DECODERS[name]
    for position in range(len(stream) * 8):
        mutated = bytearray(stream)
        mutated[position // 8] ^= 1 << (position % 8)
        try:
            out = decoder(bytes(mutated))
        except ReproError:
            continue
        assert out == _SWEEP_PAYLOAD, f"silent corruption at bit {position}"


@pytest.mark.parametrize("name", sorted(set(ENCODERS) - RUNS_TO_END))
def test_trailing_bytes_fail_where_the_layout_fixes_the_end(name):
    """Bytes after a container whose layout fixes its end must raise.

    The LZ4 frame ends after its content checksum and RST1 after its
    end frame (``Reader.end()`` or the frame parser; SZ3R, which ends
    after its backend blob, is the next test); gzip and zlib end in a
    trailer, so appended bytes become the trailer and fail its checksum.  Four layouts are exempt:
    raw DEFLATE and LZ4 blocks, and the ZSL1 and RAC1 payloads, run to
    the end of the blob, because the inner decoder decides where they
    stop.
    """
    stream = ENCODERS[name](_SWEEP_PAYLOAD)
    assert DECODERS[name](stream) == _SWEEP_PAYLOAD
    with pytest.raises(ReproError):
        DECODERS[name](stream + b"junk")


def test_trailing_bytes_after_lz4_frame_and_sz3r_are_typed_errors():
    first, second = lz4_compress(b"first frame"), lz4_compress(b"second frame")
    with pytest.raises(CorruptStreamError, match="trailing"):
        lz4_decompress(first + second)
    stream = sz3_compress(np.ones(16, dtype=np.float32), SZ3Config(error_bound=1e-3))
    with pytest.raises(CorruptStreamError, match="trailing"):
        sz3_decompress(stream + b"junk")


def test_sz3_every_truncation_fails_cleanly():
    field = np.sin(np.linspace(0, 8, 300)).astype(np.float32)
    stream = sz3_compress(field, SZ3Config(error_bound=1e-3))
    for keep in range(len(stream)):
        try:
            out = sz3_decompress(stream[:keep])
            assert isinstance(out, np.ndarray)
        except (ReproError, ValueError):
            continue


@pytest.mark.parametrize("strategy", ["fixed", "dynamic", "stored"])
def test_deflate_truncation_per_block_type(strategy):
    """Truncation coverage for each DEFLATE block coding separately —
    stored, fixed, and dynamic blocks take different decoder paths."""
    stream = deflate_compress(_SWEEP_PAYLOAD, DeflateConfig(strategy=strategy))
    for keep in range(len(stream)):
        try:
            out = deflate_decompress(stream[:keep],
                                     max_output=len(_SWEEP_PAYLOAD) * 4)
        except ReproError:
            continue
        assert len(out) <= len(_SWEEP_PAYLOAD) * 4
