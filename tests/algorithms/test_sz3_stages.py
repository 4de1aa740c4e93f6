"""SZ3 stage-level tests: preprocessor, quantizer, predictor, encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.algorithms.sz3 import encoder, predictor, quantizer
from repro.algorithms.sz3.config import SZ3Config
from repro.algorithms.sz3.preprocessor import preprocess
from repro.errors import CorruptStreamError, UnsupportedDataError


class TestPreprocessor:
    def test_accepts_float32_and_float64(self):
        for dtype in (np.float32, np.float64):
            pre = preprocess(np.ones(10, dtype=dtype), SZ3Config())
            assert pre.data.dtype == dtype

    def test_rejects_integer_dtype(self):
        with pytest.raises(UnsupportedDataError):
            preprocess(np.ones(10, dtype=np.int32), SZ3Config())

    def test_rejects_scalar(self):
        with pytest.raises(UnsupportedDataError):
            preprocess(np.float32(1.0), SZ3Config())

    def test_rejects_5d(self):
        with pytest.raises(UnsupportedDataError):
            preprocess(np.ones((2, 2, 2, 2, 2), dtype=np.float32), SZ3Config())

    def test_rejects_nan(self):
        data = np.ones(10, dtype=np.float32)
        data[3] = np.nan
        with pytest.raises(UnsupportedDataError):
            preprocess(data, SZ3Config())

    def test_rejects_inf(self):
        data = np.ones(10, dtype=np.float64)
        data[0] = np.inf
        with pytest.raises(UnsupportedDataError):
            preprocess(data, SZ3Config())

    def test_rejects_overflow_tiny_bound(self):
        data = np.full(4, 1e30, dtype=np.float64)
        with pytest.raises(UnsupportedDataError):
            preprocess(data, SZ3Config(error_bound=1e-12))

    def test_relative_mode_scales_bound(self):
        data = np.linspace(0.0, 10.0, 100).astype(np.float64)
        pre = preprocess(data, SZ3Config(error_bound=0.01, error_mode="rel"))
        assert pre.abs_error_bound == pytest.approx(0.1)

    def test_relative_mode_constant_field(self):
        data = np.full(50, 3.0, dtype=np.float64)
        pre = preprocess(data, SZ3Config(error_bound=0.01, error_mode="rel"))
        assert pre.abs_error_bound == pytest.approx(0.01)

    def test_makes_contiguous(self):
        data = np.ones((10, 10), dtype=np.float32)[:, ::2]
        pre = preprocess(data, SZ3Config())
        assert pre.data.flags["C_CONTIGUOUS"]


class TestQuantizer:
    def test_bound_holds(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=1000)
        for eb in (1e-2, 1e-4, 1.0):
            codes = quantizer.quantize(data, eb)
            recon = quantizer.dequantize(codes, eb, np.dtype(np.float64))
            assert np.abs(recon - data).max() <= eb * (1 + 1e-12)

    def test_exact_grid_values_roundtrip(self):
        eb = 0.5
        data = np.arange(-5, 6, dtype=np.float64)  # multiples of 2*eb=1
        codes = quantizer.quantize(data, eb)
        recon = quantizer.dequantize(codes, eb, np.dtype(np.float64))
        np.testing.assert_array_equal(recon, data)

    def test_codes_are_int64(self):
        assert quantizer.quantize(np.ones(3), 0.1).dtype == np.int64


class TestPredictor:
    @pytest.mark.parametrize("kind", ["lorenzo", "interp", "none"])
    @pytest.mark.parametrize(
        "shape", [(1,), (2,), (7,), (100,), (16, 16), (5, 9), (4, 5, 6), (3, 1, 2, 4)]
    )
    def test_bijective(self, kind, shape):
        rng = np.random.default_rng(42)
        codes = rng.integers(-(10**6), 10**6, size=shape).astype(np.int64)
        residual = predictor.predict_residual(codes, kind)
        back = predictor.reconstruct_codes(residual, kind)
        np.testing.assert_array_equal(back, codes)

    def test_lorenzo_smooth_residuals_small(self):
        codes = np.arange(1000, dtype=np.int64)  # linear ramp
        residual = predictor.predict_residual(codes, "lorenzo")
        # After the first sample, first differences are all 1.
        assert np.abs(residual[1:]).max() == 1

    def test_interp_smooth_residuals_small(self):
        t = np.linspace(0, 4 * np.pi, 4096)
        codes = np.rint(1000 * np.sin(t)).astype(np.int64)
        residual = predictor.predict_residual(codes, "interp")
        assert np.abs(residual).mean() < np.abs(codes).mean()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            predictor.predict_residual(np.zeros(4, dtype=np.int64), "cubic")
        with pytest.raises(ValueError):
            predictor.reconstruct_codes(np.zeros(4, dtype=np.int64), "cubic")

    def test_empty_array(self):
        empty = np.zeros(0, dtype=np.int64)
        for kind in ("lorenzo", "interp", "none"):
            out = predictor.reconstruct_codes(
                predictor.predict_residual(empty, kind), kind
            )
            assert out.size == 0


class TestEncoder:
    def test_roundtrip_small_values(self):
        residuals = np.array([0, 1, -1, 2, -2, 0, 0, 5], dtype=np.int64)
        out = encoder.decode_residuals(encoder.encode_residuals(residuals))
        np.testing.assert_array_equal(out, residuals)

    def test_roundtrip_with_escapes(self):
        residuals = np.array(
            [0, 10**12, -(10**15), 3, 2**55, -(2**55), 127, 128], dtype=np.int64
        )
        out = encoder.decode_residuals(encoder.encode_residuals(residuals))
        np.testing.assert_array_equal(out, residuals)

    def test_empty(self):
        out = encoder.decode_residuals(encoder.encode_residuals(np.zeros(0, np.int64)))
        assert out.size == 0

    def test_all_zero_compresses_hard(self):
        residuals = np.zeros(100000, dtype=np.int64)
        payload = encoder.encode_residuals(residuals)
        assert len(payload) < 100000 / 4  # ~1 bit/symbol + tables

    def test_truncated_payload_rejected(self):
        payload = encoder.encode_residuals(np.arange(100, dtype=np.int64))
        with pytest.raises(CorruptStreamError):
            encoder.decode_residuals(payload[:50])

    def test_declared_bits_checked(self):
        payload = bytearray(encoder.encode_residuals(np.arange(10, dtype=np.int64)))
        # Inflate the declared bit count beyond the stream.
        import struct

        (nbits,) = struct.unpack_from("<Q", payload, 8 + 255)
        struct.pack_into("<Q", payload, 8 + 255, nbits + 10**6)
        with pytest.raises(CorruptStreamError):
            encoder.decode_residuals(bytes(payload))


    @pytest.mark.parametrize("claimed", [2**30, 2**45, 2**64 - 1])
    def test_value_count_beyond_the_bitstream_rejected(self, claimed):
        """Decompression bomb: ``n_values`` is read before any bit is, and
        used to size the output — 2**45 asked numpy for 256 TiB, 2**30
        really allocated 8 GiB and then looped."""
        import struct

        payload = bytearray(encoder.encode_residuals(np.arange(10, dtype=np.int64)))
        struct.pack_into("<Q", payload, 0, claimed)
        with pytest.raises(CorruptStreamError):
            encoder.decode_residuals(bytes(payload))

    def test_value_count_one_past_the_bits_rejected(self):
        import struct

        payload = bytearray(encoder.encode_residuals(np.zeros(64, dtype=np.int64)))
        (nbits,) = struct.unpack_from("<Q", payload, 8 + 255)
        assert nbits == 64  # one symbol, one bit each
        struct.pack_into("<Q", payload, 0, nbits + 1)
        with pytest.raises(CorruptStreamError):
            encoder.decode_residuals(bytes(payload))

    def test_hostile_code_length_rejected(self):
        payload = bytearray(encoder.encode_residuals(np.arange(10, dtype=np.int64)))
        payload[8 + 3] = 200  # a 200-bit code: the table would be 2**200 slots
        with pytest.raises(CorruptStreamError):
            encoder.decode_residuals(bytes(payload))


@given(
    arrays(
        dtype=np.int64,
        shape=st.integers(0, 400),
        elements=st.integers(-(2**60), 2**60),
    )
)
@settings(max_examples=60, deadline=None)
def test_property_encoder_roundtrip(residuals):
    out = encoder.decode_residuals(encoder.encode_residuals(residuals))
    np.testing.assert_array_equal(out, residuals)


@given(
    st.sampled_from(["lorenzo", "interp", "none"]),
    arrays(
        dtype=np.int64,
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        elements=st.integers(-(2**40), 2**40),
    ),
)
@settings(max_examples=60, deadline=None)
def test_property_predictor_bijective(kind, codes):
    back = predictor.reconstruct_codes(
        predictor.predict_residual(codes, kind), kind
    )
    np.testing.assert_array_equal(back, codes)
