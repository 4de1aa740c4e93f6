"""SZ3 stage 1 — preprocessor.

Validates and normalises the input array and resolves the effective
absolute error bound (value-range scaling for relative mode), mirroring
SZ3's preprocessing stage that "normalizes and conditions the data".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.algorithms.sz3.config import SZ3Config
from repro.errors import UnsupportedDataError

__all__ = ["Preprocessed", "preprocess", "DTYPE_CODES", "DTYPE_FROM_CODE", "MAX_NDIM"]

DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
DTYPE_FROM_CODE = {v: k for k, v in DTYPE_CODES.items()}

MAX_NDIM = 4
# Quantisation codes are int64; leave generous headroom for the zigzag
# doubling and Lorenzo differencing (each difference at most doubles the
# magnitude per axis).
_MAX_ABS_CODE = 1 << 56


@dataclass(frozen=True)
class Preprocessed:
    """Output of the preprocessing stage."""

    data: np.ndarray  # C-contiguous float array, original shape
    shape: tuple[int, ...]
    dtype_code: int
    abs_error_bound: float  # resolved absolute bound


def preprocess(array: np.ndarray, config: SZ3Config) -> Preprocessed:
    """Validate ``array`` and resolve the effective absolute error bound.

    Raises
    ------
    UnsupportedDataError
        For non-float dtypes, >4-D arrays, non-finite values, a resolved
        error bound that is not a positive finite number, or one so
        small that quantisation codes would overflow.
    """
    array = np.asarray(array)
    if array.dtype not in DTYPE_CODES:
        raise UnsupportedDataError(
            f"SZ3 supports float32/float64 arrays, got dtype {array.dtype}"
        )
    if array.ndim == 0 or array.ndim > MAX_NDIM:
        raise UnsupportedDataError(
            f"SZ3 supports 1..{MAX_NDIM}-D arrays, got {array.ndim}-D"
        )
    if array.size and not np.isfinite(array).all():
        raise UnsupportedDataError("SZ3 input must be finite (no NaN/Inf)")
    array = np.ascontiguousarray(array)

    eb = config.error_bound
    if config.error_mode == "rel":
        if array.size:
            value_range = float(array.max() - array.min())
        else:
            value_range = 0.0
        eb = eb * value_range if value_range > 0 else config.error_bound
    # The decoder refuses any other bound, so never write one.
    if not 0 < eb < math.inf:
        raise UnsupportedDataError(f"resolved error bound {eb!r} is not in (0, inf)")

    if array.size:
        max_code = float(np.abs(array).max()) / (2.0 * eb)
        if max_code > _MAX_ABS_CODE:
            raise UnsupportedDataError(
                f"error bound {eb:g} too small for data magnitude "
                f"{float(np.abs(array).max()):g}: quantisation would overflow"
            )

    return Preprocessed(
        data=array,
        shape=tuple(array.shape),
        dtype_code=DTYPE_CODES[array.dtype],
        abs_error_bound=eb,
    )
