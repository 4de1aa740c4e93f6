"""SZ3 stage 2 — predictors, in the integer code domain.

Per the equivalence documented in :mod:`repro.algorithms.sz3.quantizer`,
prediction operates on quantisation codes.  Both predictors are exact
integer transforms (bijective on ``int64`` arrays), so the predictor
stage itself is lossless; all information loss lives in the quantizer.

``lorenzo``
    First-order Lorenzo in every array dimension = successive first
    differences along each axis.  For smooth fields the residuals
    concentrate near zero.  Inverse: cumulative sums in reverse axis
    order.

``interp``
    SZ3's level-wise interpolation, applied to the C-order flattened
    sequence: coarse anchor points are delta-coded, then each refinement
    level predicts the midpoints of the previous level by the integer
    mean of their two anchors.  Dependencies exist only *between* levels,
    so each level is one vectorised operation.
"""

from __future__ import annotations

import numpy as np

from repro.obs.profile import get_profiler

__all__ = ["predict_residual", "reconstruct_codes"]


def _lorenzo_residual(codes: np.ndarray) -> np.ndarray:
    res = codes
    for axis in range(codes.ndim):
        res = np.diff(res, axis=axis, prepend=np.int64(0))
    return res


def _lorenzo_reconstruct(res: np.ndarray) -> np.ndarray:
    codes = res
    for axis in reversed(range(res.ndim)):
        codes = np.cumsum(codes, axis=axis, dtype=np.int64)
    return codes


def _interp_levels(n: int) -> list[int]:
    """Refinement strides: ..., 8, 4, 2, 1 with the top stride < n."""
    if n < 2:
        return []
    top = 1 << (max(n - 1, 1).bit_length() - 1)
    strides = []
    s = top
    while s >= 1:
        strides.append(s)
        s >>= 1
    return strides


def _interp_residual(codes: np.ndarray) -> np.ndarray:
    flat = codes.reshape(-1)
    n = flat.size
    res = np.empty_like(flat)
    strides = _interp_levels(n)
    if not strides:
        return codes.copy()
    top = strides[0]
    # Anchors live on the 2*top grid (so level `top` can refine their
    # midpoints); delta-code the anchor sequence.
    anchors = flat[:: 2 * top]
    res[:: 2 * top] = np.diff(anchors, prepend=np.int64(0))
    for s in strides:
        # Targets are odd multiples of s — midpoints of the 2s grid.
        targets = np.arange(s, n, 2 * s)
        if targets.size == 0:
            continue
        left = flat[targets - s]
        right_idx = targets + s
        # Final midpoint may lack a right anchor: predict from left only.
        right = np.where(right_idx < n, flat[np.minimum(right_idx, n - 1)], left)
        pred = (left + right) >> 1  # floor integer mean
        res[targets] = flat[targets] - pred
    return res.reshape(codes.shape)


def _interp_reconstruct(res: np.ndarray) -> np.ndarray:
    flat_res = res.reshape(-1)
    n = flat_res.size
    strides = _interp_levels(n)
    if not strides:
        return res.copy()
    out = np.empty_like(flat_res)
    top = strides[0]
    out[:: 2 * top] = np.cumsum(flat_res[:: 2 * top], dtype=np.int64)
    for s in strides:
        targets = np.arange(s, n, 2 * s)
        if targets.size == 0:
            continue
        left = out[targets - s]
        right_idx = targets + s
        right = np.where(right_idx < n, out[np.minimum(right_idx, n - 1)], left)
        pred = (left + right) >> 1
        out[targets] = pred + flat_res[targets]
    return out.reshape(res.shape)


def predict_residual(codes: np.ndarray, kind: str) -> np.ndarray:
    """Transform quantisation codes into prediction residuals.

    Both predictors are whole-array numpy kernels; the Lorenzo pair's
    sequential per-element twins live in
    :mod:`repro.algorithms.reference.sz3`.
    """
    with get_profiler().kernel(f"{kind}.predict"):
        if kind == "lorenzo":
            return _lorenzo_residual(codes)
        if kind == "interp":
            return _interp_residual(codes)
        if kind == "none":
            return codes.copy()
        raise ValueError(f"unknown predictor {kind!r}")


def reconstruct_codes(residual: np.ndarray, kind: str) -> np.ndarray:
    """Inverse of :func:`predict_residual`."""
    with get_profiler().kernel(f"{kind}.reconstruct"):
        if kind == "lorenzo":
            return _lorenzo_reconstruct(residual)
        if kind == "interp":
            return _interp_reconstruct(residual)
        if kind == "none":
            return residual.copy()
        raise ValueError(f"unknown predictor {kind!r}")
