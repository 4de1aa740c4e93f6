"""zstd-lite container codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.zstdlite import zstdlite_compress, zstdlite_decompress
from repro.errors import ChecksumMismatchError, CorruptStreamError, OutputOverflowError


class TestRoundtrip:
    @pytest.mark.parametrize(
        "data",
        [b"", b"x", b"hello " * 1000, np.random.default_rng(0).bytes(3000)],
        ids=["empty", "single", "text", "random"],
    )
    def test_roundtrip(self, data):
        assert zstdlite_decompress(zstdlite_compress(data)) == data

    def test_magic_required(self):
        with pytest.raises(CorruptStreamError):
            zstdlite_decompress(b"NOPE" + bytes(20))

    def test_short_container_rejected(self):
        with pytest.raises(CorruptStreamError):
            zstdlite_decompress(b"ZSL1")

    def test_checksum_verified(self, text_payload):
        blob = bytearray(zstdlite_compress(text_payload))
        blob[12] ^= 0xFF  # inside the xxh32 field
        with pytest.raises((ChecksumMismatchError, CorruptStreamError)):
            zstdlite_decompress(bytes(blob))

    def test_declared_size_bounds_output(self, text_payload):
        blob = zstdlite_compress(text_payload)
        with pytest.raises(OutputOverflowError):
            zstdlite_decompress(blob, max_output=10)

    def test_faster_matcher_still_compresses(self, text_payload):
        blob = zstdlite_compress(text_payload)
        assert len(blob) < len(text_payload) / 3


def test_speed_class_vs_deflate(text_payload):
    """zstd-lite must be configured strictly faster (shallower search)
    than the default DEFLATE — its role in the A8 calibration story."""
    from repro.algorithms.lz77 import MatcherConfig
    from repro.algorithms.zstdlite import FAST_MATCHER

    default = MatcherConfig()
    assert FAST_MATCHER.max_chain < default.max_chain
    assert not FAST_MATCHER.lazy


@given(st.binary(max_size=3000))
@settings(max_examples=30, deadline=None)
def test_property_roundtrip(blob):
    assert zstdlite_decompress(zstdlite_compress(blob)) == blob
