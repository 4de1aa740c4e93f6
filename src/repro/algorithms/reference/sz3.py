"""Per-element twins of the SZ3 predictor and quantizer kernels.

The classic sequential SZ shape, one sample at a time: the Lorenzo
sweep of :mod:`repro.algorithms.sz3.predictor` and the grid map of
:mod:`repro.algorithms.sz3.quantizer`.  The whole-array production
kernels must match them bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lorenzo_residual", "lorenzo_reconstruct", "quantize", "dequantize"]


def lorenzo_residual(codes: np.ndarray) -> np.ndarray:
    """Per-element twin of ``predictor._lorenzo_residual`` — the classic
    sequential Lorenzo sweep, one sample at a time.  Integer arithmetic
    is exact, so the result matches the vectorized successive-diff
    formulation bit for bit in any dimension count."""
    res = np.asarray(codes, dtype=np.int64)
    for axis in range(res.ndim):
        out = np.empty_like(res)
        length = res.shape[axis]
        moved = np.moveaxis(res, axis, 0)
        out_moved = np.moveaxis(out, axis, 0)
        for k in range(length - 1, -1, -1):
            for idx in np.ndindex(moved.shape[1:]):
                prev = moved[(k - 1,) + idx] if k > 0 else np.int64(0)
                out_moved[(k,) + idx] = moved[(k,) + idx] - prev
        res = out
    return res


def lorenzo_reconstruct(res: np.ndarray) -> np.ndarray:
    """Per-element twin of ``predictor._lorenzo_reconstruct``."""
    codes = np.asarray(res, dtype=np.int64)
    for axis in reversed(range(codes.ndim)):
        out = np.empty_like(codes)
        length = codes.shape[axis]
        moved = np.moveaxis(codes, axis, 0)
        out_moved = np.moveaxis(out, axis, 0)
        for k in range(length):
            for idx in np.ndindex(moved.shape[1:]):
                prev = out_moved[(k - 1,) + idx] if k > 0 else np.int64(0)
                out_moved[(k,) + idx] = prev + moved[(k,) + idx]
        codes = out
    return codes


def quantize(data: np.ndarray, pitch: float) -> np.ndarray:
    """Per-element twin of ``quantizer._quantize`` (classic sequential SZ
    shape).  Uses numpy *scalar* ops so rounding and the NaN/Inf →
    ``int64`` cast behave exactly like the whole-array kernel."""
    flat = np.asarray(data).reshape(-1)
    out = np.empty(flat.size, dtype=np.int64)
    for i in range(flat.size):
        out[i] = np.rint(np.float64(flat[i]) / pitch).astype(np.int64)
    return out.reshape(np.asarray(data).shape)


def dequantize(
    codes: np.ndarray, pitch: float, dtype: np.dtype
) -> np.ndarray:
    """Per-element twin of ``quantizer._dequantize``."""
    flat = np.asarray(codes).reshape(-1)
    out = np.empty(flat.size, dtype=dtype)
    for i in range(flat.size):
        out[i] = (np.float64(flat[i]) * pitch).astype(dtype)
    return out.reshape(np.asarray(codes).shape)
