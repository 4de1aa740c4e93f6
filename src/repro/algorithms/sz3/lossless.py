"""SZ3 stage 5 — pluggable lossless backend.

SZ3 finishes by losslessly compressing the entropy-coded payload (the
real SZ3 defaults to zstd).  PEDAL's lossy optimisation (paper §III-C.2)
reroutes exactly this stage to the C-Engine; keeping it behind one
two-function interface is what makes that rerouting a one-line change in
:mod:`repro.plan.sz3_hybrid`.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import CorruptStreamError
from repro.util.framing import cap

__all__ = ["backend_compress", "backend_decompress", "BACKEND_IDS", "BACKEND_NAMES"]

BACKEND_IDS = {"none": 0, "deflate": 1, "lz4": 2, "zstdlite": 3, "ac": 4}
BACKEND_NAMES = {v: k for k, v in BACKEND_IDS.items()}


def _get_codec(name: str) -> tuple[Callable[[bytes], bytes], Callable[[bytes], bytes]]:
    if name == "none":
        return (lambda b: b), (lambda b: b)
    if name == "deflate":
        from repro.algorithms.deflate import deflate_compress, deflate_decompress

        return deflate_compress, deflate_decompress
    if name == "lz4":
        from repro.algorithms.lz4 import lz4_compress, lz4_decompress

        return lz4_compress, lz4_decompress
    if name == "zstdlite":
        from repro.algorithms.zstdlite import zstdlite_compress, zstdlite_decompress

        return zstdlite_compress, zstdlite_decompress
    if name == "ac":
        from repro.algorithms.ac import ac_compress, ac_decompress

        return ac_compress, ac_decompress
    raise CorruptStreamError(f"unknown SZ3 lossless backend {name!r}")


def backend_compress(payload: bytes, name: str) -> bytes:
    """Compress the entropy-coded payload with the named backend."""
    compress, _ = _get_codec(name)
    return compress(payload)


def backend_decompress(blob: bytes, name: str, max_output: "int | None" = None) -> bytes:
    """Decompress a backend blob produced by :func:`backend_compress`
    into at most ``max_output`` bytes, else ``OutputOverflowError``."""
    if name == "none":
        cap(len(blob), max_output, "SZ3 entropy payload")
        return blob
    _, decompress = _get_codec(name)
    return decompress(blob, max_output=max_output)
