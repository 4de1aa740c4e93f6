"""The zlib and SZ3 hybrid (SoC + C-Engine) codec splits."""

import numpy as np
import pytest

from repro.algorithms.sz3 import SZ3Compressor, SZ3Config
from repro.algorithms.zlib_format import zlib_compress, zlib_decompress
from repro.errors import ChecksumMismatchError
from repro.plan.sz3_hybrid import hybrid_sz3_compress, hybrid_sz3_decompress
from repro.plan.zlib_hybrid import hybrid_zlib_compress, hybrid_zlib_decompress


class TestZlibHybrid:
    def test_byte_identical_to_oneshot(self, text_payload):
        stream, _sizes = hybrid_zlib_compress(text_payload)
        assert stream == zlib_compress(text_payload)

    def test_stage_sizes(self, text_payload):
        stream, sizes = hybrid_zlib_compress(text_payload)
        # header (2) + deflate payload + adler (4)
        assert len(stream) == 2 + sizes.deflate_payload_bytes + 4
        assert sizes.checksum_bytes == len(text_payload)

    def test_decompress_roundtrip(self, text_payload):
        stream, _ = hybrid_zlib_compress(text_payload)
        data, sizes = hybrid_zlib_decompress(stream)
        assert data == text_payload
        assert sizes.deflate_payload_bytes == len(stream) - 6

    def test_decodes_plain_zlib(self, text_payload):
        data, _ = hybrid_zlib_decompress(zlib_compress(text_payload))
        assert data == text_payload

    def test_plain_decoder_accepts_hybrid_stream(self, text_payload):
        stream, _ = hybrid_zlib_compress(text_payload)
        assert zlib_decompress(stream) == text_payload

    def test_corrupt_trailer_detected(self, text_payload):
        stream, _ = hybrid_zlib_compress(text_payload)
        bad = stream[:-1] + bytes([stream[-1] ^ 1])
        with pytest.raises(ChecksumMismatchError):
            hybrid_zlib_decompress(bad)


class TestSz3Hybrid:
    def test_backend_is_deflate(self, smooth_field):
        result = hybrid_sz3_compress(smooth_field, SZ3Config(error_bound=1e-4))
        # Backend id is byte 8 of the SZ3R header; 1 == deflate.
        assert result.stream[8] == 1

    def test_overrides_requested_backend(self, smooth_field):
        cfg = SZ3Config(error_bound=1e-4, backend="zstdlite")
        result = hybrid_sz3_compress(smooth_field, cfg)
        assert result.stream[8] == 1  # still deflate

    def test_roundtrip_error_bound(self, smooth_field):
        result = hybrid_sz3_compress(smooth_field, SZ3Config(error_bound=1e-4))
        recon = hybrid_sz3_decompress(result.stream)
        err = np.abs(recon.astype(np.float64) - smooth_field.astype(np.float64)).max()
        assert err <= 1e-4 + 1e-6

    def test_stage_sizes_recorded(self, smooth_field):
        result = hybrid_sz3_compress(smooth_field, SZ3Config(error_bound=1e-4))
        sizes = result.sizes
        assert sizes.input_bytes == smooth_field.nbytes
        assert 0 < sizes.backend_blob_bytes <= sizes.entropy_payload_bytes
        assert sizes.stream_bytes == len(result.stream)

    def test_ratio_differs_from_native_backend(self, smooth_field):
        # Table V(b): SZ3 vs SZ3(C-Engine) ratios differ slightly
        # because the backend codec differs.
        native = SZ3Compressor(SZ3Config(error_bound=1e-4)).compress(smooth_field)
        hybrid = hybrid_sz3_compress(smooth_field, SZ3Config(error_bound=1e-4)).stream
        assert len(native) != len(hybrid)

    def test_plain_decoder_accepts_hybrid_stream(self, smooth_field):
        result = hybrid_sz3_compress(smooth_field, SZ3Config(error_bound=1e-4))
        recon = SZ3Compressor.decompress(result.stream)
        assert recon.shape == smooth_field.shape
