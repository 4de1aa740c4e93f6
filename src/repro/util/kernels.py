"""Kernel-mode dispatch: vectorized fast paths vs scalar references.

PR 8 rewrote the hot codec kernels (LZ77 matching, Huffman emission,
SZ3 predict/quantize, the AC context gather) with numpy vectorization
while keeping byte-identical output.  The original scalar kernels
survive as *reference implementations*; every rewritten call site
dispatches through :func:`scalar_kernels` so the two can be diffed at
will:

* ``REPRO_SCALAR_KERNELS=1`` in the environment selects the scalar
  references process-wide (the nightly CI fuzz job sweeps both modes);
* :func:`force_kernel_mode` overrides the environment for a scoped
  block — the kernel-equivalence tests use it to run the same input
  through both implementations inside one process.

The environment variable is read once, when this module is imported:
:func:`kernel_mode` runs on every kernel dispatch and every PEDAL memo
key, thousands of times per served batch, and must not pay an
``os.environ`` lookup each time.  Set the variable before the
interpreter starts; inside a process :func:`force_kernel_mode` is the
switch.  Truthiness follows the usual convention: unset, ``""``,
``0``, ``false``, ``no`` and ``off`` mean vectorized; anything else
means scalar.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "ENV_VAR",
    "VECTORIZED",
    "SCALAR",
    "kernel_mode",
    "scalar_kernels",
    "force_kernel_mode",
]

ENV_VAR = "REPRO_SCALAR_KERNELS"
VECTORIZED = "vectorized"
SCALAR = "scalar"

_FALSEY = frozenset({"", "0", "false", "no", "off"})

#: The environment's choice, fixed at import.
_ENV_MODE = (
    VECTORIZED if os.environ.get(ENV_VAR, "").strip().lower() in _FALSEY
    else SCALAR
)

#: Scoped override installed by :func:`force_kernel_mode`; wins over the
#: environment while set.
_override: "str | None" = None


def kernel_mode() -> str:
    """Current kernel mode: ``"vectorized"`` or ``"scalar"``."""
    return _ENV_MODE if _override is None else _override


def scalar_kernels() -> bool:
    """True when the scalar reference kernels are selected."""
    return kernel_mode() == SCALAR


@contextmanager
def force_kernel_mode(mode: str) -> Iterator[None]:
    """Force ``mode`` (``"vectorized"`` or ``"scalar"``) for a scope.

    Nestable; restores the previous override on exit.  This overrides
    ``REPRO_SCALAR_KERNELS`` so equivalence tests can compare both
    implementations regardless of the ambient environment.
    """
    if mode not in (VECTORIZED, SCALAR):
        raise ValueError(
            f"kernel mode must be {VECTORIZED!r} or {SCALAR!r}, got {mode!r}"
        )
    global _override
    prev = _override
    _override = mode
    try:
        yield
    finally:
        _override = prev
