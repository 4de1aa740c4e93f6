r"""SZ3 stage 3 — linear error-bounded quantizer.

Maps each sample onto the uniform grid of pitch ``2*eb``::

    q = round(x / (2*eb))          reconstruction:  x' = q * 2*eb

which guarantees ``|x - x'| <= eb`` point-wise.

Equivalence to classic predict-then-quantize SZ
-----------------------------------------------
Classic SZ computes, sample by sample,

.. math::

    q_i = \mathrm{round}\!\big((x_i - p_i) / 2eb\big), \qquad
    \hat x_i = p_i + 2eb\, q_i

where the prediction :math:`p_i` is an integer-coefficient combination
of already-reconstructed neighbours :math:`\hat x_j`.  By induction
every :math:`\hat x_j` is a multiple of :math:`2eb`, hence
:math:`p_i = 2eb\,P_i` with integer :math:`P_i`, and

.. math::

    q_i = \mathrm{round}(x_i/2eb - P_i) = \mathrm{round}(x_i/2eb) - P_i.

So the *transmitted* residual code equals (grid code − integer
prediction), and reconstruction is exactly :math:`2eb \cdot
\mathrm{round}(x_i/2eb)` independent of the predictor.  This module
implements the grid map; :mod:`repro.algorithms.sz3.predictor`
implements :math:`P` in the integer domain.  The resulting codes are
bit-identical to the sequential algorithm while being fully
vectorisable.
"""

from __future__ import annotations

import numpy as np

from repro.obs.profile import get_profiler

__all__ = ["quantize", "dequantize"]


def quantize(data: np.ndarray, abs_error_bound: float) -> np.ndarray:
    """Quantise ``data`` onto the ``2*eb`` grid; returns ``int64`` codes.

    ``np.rint`` rounds half-to-even; any consistent rounding satisfies
    the bound since ties sit exactly at distance ``eb``.
    """
    with get_profiler().kernel("lorenzo.quantize"):
        return _quantize(data, 2.0 * abs_error_bound)


def dequantize(
    codes: np.ndarray, abs_error_bound: float, dtype: np.dtype
) -> np.ndarray:
    """Reconstruct grid values from ``int64`` codes."""
    with get_profiler().kernel("lorenzo.dequantize"):
        return _dequantize(codes, 2.0 * abs_error_bound, dtype)


def _quantize(data: np.ndarray, pitch: float) -> np.ndarray:
    return np.rint(data.astype(np.float64) / pitch).astype(np.int64)


def _dequantize(codes: np.ndarray, pitch: float, dtype: np.dtype) -> np.ndarray:
    return (codes.astype(np.float64) * pitch).astype(dtype)
