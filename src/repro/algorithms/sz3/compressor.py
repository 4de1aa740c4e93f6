"""SZ3 stage orchestration: the full compress/decompress pipelines.

Stream layout (little-endian)::

    magic   b"SZ3R"
    u8      format version (1)
    u8      dtype code (0 = float32, 1 = float64)
    u8      ndim
    u8      predictor id
    u8      backend id
    u64[nd] shape
    f64     absolute error bound
    u64     backend blob length
    bytes   backend blob (lossless-compressed entropy payload)

:class:`SZ3Compressor` additionally exposes each stage separately and
records per-stage byte counts, which :mod:`repro.plan.sz3_hybrid` uses
to charge the right simulated hardware for the right stage.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.sz3 import encoder, lossless, predictor, quantizer
from repro.obs.profile import get_profiler
from repro.algorithms.sz3.config import SZ3Config
from repro.algorithms.sz3.preprocessor import DTYPE_FROM_CODE, MAX_NDIM, preprocess
from repro.errors import CorruptStreamError
from repro.util.framing import Reader

__all__ = ["SZ3Compressor", "StageSizes", "sz3_compress", "sz3_decompress"]

_MAGIC = b"SZ3R"
_VERSION = 1
_PREDICTOR_IDS = {"lorenzo": 0, "interp": 1, "none": 2}
_PREDICTOR_NAMES = {v: k for k, v in _PREDICTOR_IDS.items()}
_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


@dataclass
class StageSizes:
    """Byte counts flowing between pipeline stages (one compression)."""

    input_bytes: int = 0
    entropy_payload_bytes: int = 0  # encoder output = lossless-stage input
    backend_blob_bytes: int = 0  # lossless-stage output
    stream_bytes: int = 0  # final stream including header


@dataclass
class SZ3Compressor:
    """Stage-by-stage SZ3 pipeline bound to one configuration."""

    config: SZ3Config = field(default_factory=SZ3Config)
    last_stage_sizes: StageSizes = field(default_factory=StageSizes)

    # -- individual stages --------------------------------------------------

    def entropy_stage(self, array: np.ndarray) -> tuple[bytes, bytes]:
        """Run preprocess → predict → quantise → encode.

        Returns ``(header, entropy_payload)`` — everything up to (and
        excluding) the lossless backend stage.
        """
        pre = preprocess(array, self.config)
        codes = quantizer.quantize(pre.data, pre.abs_error_bound)
        residual = predictor.predict_residual(codes, self.config.predictor)
        payload = encoder.encode_residuals(residual)

        ndim = len(pre.shape)
        header = _MAGIC + bytes([
            _VERSION, pre.dtype_code, ndim, _PREDICTOR_IDS[self.config.predictor],
            lossless.BACKEND_IDS[self.config.backend],
        ]) + struct.pack(f"<{ndim}Q", *pre.shape) + _F64.pack(pre.abs_error_bound)
        return header, payload

    def lossless_stage(self, payload: bytes) -> bytes:
        """Apply the configured lossless backend to the entropy payload."""
        return lossless.backend_compress(payload, self.config.backend)

    def assemble(self, header: bytes, blob: bytes) -> bytes:
        """Concatenate header + blob length + blob into the final stream."""
        return header + _U64.pack(len(blob)) + blob

    # -- one-shot APIs ------------------------------------------------------

    def compress(self, array: np.ndarray) -> bytes:
        """Full pipeline; also records :attr:`last_stage_sizes`."""
        with get_profiler().kernel("sz3.compress"):
            header, payload = self.entropy_stage(array)
            blob = self.lossless_stage(payload)
            stream = self.assemble(header, blob)
        self.last_stage_sizes = StageSizes(
            input_bytes=int(np.asarray(array).nbytes),
            entropy_payload_bytes=len(payload),
            backend_blob_bytes=len(blob),
            stream_bytes=len(stream),
        )
        return stream

    @staticmethod
    def decompress(stream: bytes) -> np.ndarray:
        """Decode a stream produced by any :class:`SZ3Compressor`."""
        array, _sizes = SZ3Compressor.decompress_stages(stream)
        return array

    @staticmethod
    def decompress_stages(stream: bytes) -> tuple[np.ndarray, StageSizes]:
        """Decode a stream, reporting per-stage byte counts.

        The sizes let callers (PEDAL's hybrid design) attribute the
        lossless-stage work separately from the entropy pipeline.
        """
        r = Reader(stream, "SZ3R")
        r.magic(_MAGIC)
        version, dtype_code, ndim, predictor_id, backend_id = r.take(5, "header")
        if version != _VERSION:
            raise CorruptStreamError(f"unsupported SZ3R version {version}")
        if dtype_code not in DTYPE_FROM_CODE:
            raise CorruptStreamError(f"unknown dtype code {dtype_code}")
        if not 1 <= ndim <= MAX_NDIM:
            raise CorruptStreamError(f"SZ3R ndim {ndim} outside 1..{MAX_NDIM}")
        if predictor_id not in _PREDICTOR_NAMES:
            raise CorruptStreamError(f"unknown predictor id {predictor_id}")
        if backend_id not in lossless.BACKEND_NAMES:
            raise CorruptStreamError(f"unknown backend id {backend_id}")
        shape = r.unpack(struct.Struct(f"<{ndim}Q"), "shape")
        (eb,) = r.unpack(_F64, "error bound")
        if not 0 < eb < math.inf:
            raise CorruptStreamError(f"SZ3R error bound {eb!r} is not in (0, inf)")
        (blob_len,) = r.unpack(_U64, "backend blob length")
        blob = r.take(blob_len, "backend blob")
        r.end()

        # The declared shape caps what the backend may inflate.
        n = math.prod(shape)
        payload = lossless.backend_decompress(
            blob, lossless.BACKEND_NAMES[backend_id], encoder.max_payload_bytes(n))
        residual = encoder.decode_residuals(payload)
        if residual.size != n:
            raise CorruptStreamError(
                f"decoded {residual.size} residuals for shape {shape} ({n} expected)"
            )
        residual = residual.reshape(shape)
        codes = predictor.reconstruct_codes(residual, _PREDICTOR_NAMES[predictor_id])
        array = quantizer.dequantize(codes, eb, DTYPE_FROM_CODE[dtype_code])
        sizes = StageSizes(
            input_bytes=int(array.nbytes),
            entropy_payload_bytes=len(payload),
            backend_blob_bytes=len(blob),
            stream_bytes=len(stream),
        )
        return array, sizes


def sz3_compress(array: np.ndarray, config: SZ3Config | None = None) -> bytes:
    """One-shot SZ3 compression of a float ndarray."""
    return SZ3Compressor(config or SZ3Config()).compress(array)


def sz3_decompress(stream: bytes) -> np.ndarray:
    """One-shot SZ3 decompression back to an ndarray."""
    return SZ3Compressor.decompress(stream)
