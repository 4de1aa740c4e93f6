"""PEDAL — the paper's unified DPU compression/decompression library.

PEDAL unifies the four algorithms of Table I over the two execution
engines of a BlueField DPU (SoC cores and the C-Engine accelerator),
giving the eight *compression designs* of Table III.  Its key techniques
(paper §III):

* hoisting DOCA initialisation and buffer preparation into
  ``PEDAL_Init`` (a memory pool of pre-mapped DOCA buffers);
* a 3-byte message header (0xFF, AlgoID, 0xFF) that lets the receiver
  pick the matching decompressor;
* hybrid zlib — DEFLATE payload on the C-Engine, header/adler trailer
  on the SoC;
* hybrid SZ3 — entropy pipeline on the SoC, lossless backend stage on
  the C-Engine;
* capability detection with automatic SoC fallback (Table III).

Public API
----------
:class:`PedalContext` — object API (init/compress/decompress/finalize
as simulation generators).
:func:`PEDAL_init` / :func:`PEDAL_compress` / :func:`PEDAL_decompress`
/ :func:`PEDAL_finalize` — paper-faithful function spellings.
:class:`CompressionDesign`, :data:`ALL_DESIGNS`, :func:`design` — the
eight designs.
"""

from repro.core.api import (
    CompressResult,
    DecompressResult,
    PedalConfig,
    PedalContext,
    PEDAL_compress,
    PEDAL_decompress,
    PEDAL_finalize,
    PEDAL_init,
)
from repro.plan.designs import ALL_DESIGNS, CompressionDesign, Placement, design
from repro.plan.header import PedalHeader

__all__ = [
    "ALL_DESIGNS",
    "CompressResult",
    "CompressionDesign",
    "DecompressResult",
    "PEDAL_compress",
    "PEDAL_decompress",
    "PEDAL_finalize",
    "PEDAL_init",
    "PedalConfig",
    "PedalContext",
    "PedalHeader",
    "Placement",
    "design",
]
