"""A fixed calibration kernel, so host times can be quoted in
reference-machine seconds.

The sandbox this benchmark runs in shares its cores: the same rep is up
to 2x slower from one minute to the next, which no amount of repetition
inside a 10 s window averages away.  So every timed region is bracketed
by this kernel — a fixed mix of interpreter work, numpy dispatch, numpy
bulk kernels and memory fills, none of it ``repro`` code — and reported
as ``seconds * CAL_REF_S / calibration seconds``.  A change to the
library moves only the numerator; a slow minute moves both.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

__all__ = ["CAL_REF_S", "calibrate"]

# What one calibrate() call takes on the reference machine (this
# sandbox when it is quiet); normalised times are in its seconds.
CAL_REF_S = 0.016

_BULK = (np.arange(1 << 15, dtype=np.uint64) * 2654435761 % 65521).astype(np.uint32)
_SMALL = (np.arange(300, dtype=np.uint32) * 37 % 251).astype(np.uint8)
_FILL = np.empty(4 << 20, dtype=np.uint8)


def calibrate() -> float:
    """Run the kernel once; returns its host seconds."""
    start = perf_counter()
    acc = 0
    for i in range(160_000):  # interpreter-bound, like the sim and core layers
        acc += i & 7
    for _ in range(900):  # numpy-dispatch-bound, like small-block codecs
        wide = _SMALL.astype(np.int64)
        np.cumsum(wide)
        np.flatnonzero(np.bincount(_SMALL, minlength=256))
    for _ in range(2):  # bulk kernels, like the vectorised matchers
        order = np.argsort(_BULK, kind="stable")
        (np.cumsum(_BULK[order]) & 255).astype(np.uint8).tobytes()
    for _ in range(4):  # memory bandwidth, like ScratchPool's zero-fill
        _FILL.fill(acc & 1)
    return perf_counter() - start
