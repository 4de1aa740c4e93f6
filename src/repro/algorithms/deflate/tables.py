"""RFC 1951 constant tables: length/distance code mappings and fixed trees.

Everything the compressor uses is exposed as numpy arrays so it can map
whole token streams to symbols with vectorised lookups; the decompressor
reads :data:`LENGTH_TABLE` / :data:`DIST_TABLE`, plain ``(base, extra
bits)`` tuples.  The fixed trees' codes and per-symbol costs are worked
out here once, not per block.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import huffman

__all__ = [
    "MAX_MATCH",
    "MIN_MATCH",
    "WINDOW_SIZE",
    "END_OF_BLOCK",
    "LENGTH_TABLE",
    "LENGTH_BASE",
    "LENGTH_EXTRA",
    "LENGTH_SYM_FOR_LEN",
    "LITLEN_EXTRA",
    "DIST_TABLE",
    "DIST_BASE",
    "DIST_EXTRA",
    "CLCODE_ORDER",
    "FIXED_LITLEN_LENGTHS",
    "FIXED_DIST_LENGTHS",
    "FIXED_LITLEN_CODES",
    "FIXED_DIST_CODES",
    "FIXED_LITLEN_COST",
    "FIXED_DIST_COST",
    "dist_symbol",
]

MIN_MATCH = 3
MAX_MATCH = 258
WINDOW_SIZE = 32768
END_OF_BLOCK = 256

# Length codes 257..285: (base length, extra bits).  RFC 1951 §3.2.5.
LENGTH_TABLE = (
    (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0), (10, 0),
    (11, 1), (13, 1), (15, 1), (17, 1),
    (19, 2), (23, 2), (27, 2), (31, 2),
    (35, 3), (43, 3), (51, 3), (59, 3),
    (67, 4), (83, 4), (99, 4), (115, 4),
    (131, 5), (163, 5), (195, 5), (227, 5),
    (258, 0),
)
LENGTH_BASE = np.array([b for b, _ in LENGTH_TABLE], dtype=np.int32)
LENGTH_EXTRA = np.array([e for _, e in LENGTH_TABLE], dtype=np.int32)

# Direct map: match length (3..258) -> length-code index (0..28).
LENGTH_SYM_FOR_LEN = np.zeros(MAX_MATCH + 1, dtype=np.int32)
for _idx in range(len(LENGTH_TABLE)):
    _base = LENGTH_TABLE[_idx][0]
    _end = LENGTH_TABLE[_idx + 1][0] if _idx + 1 < len(LENGTH_TABLE) else 259
    LENGTH_SYM_FOR_LEN[_base:_end] = _idx
# Length 258 is its own code (28), not part of code 27's extra range.
LENGTH_SYM_FOR_LEN[258] = 28

# Extra bits behind each of the 286 literal/length symbols (0 for
# literals and end-of-block): with a block's symbol histogram, its
# extra-bit total is one dot product.
LITLEN_EXTRA = np.zeros(286, dtype=np.int32)
LITLEN_EXTRA[257:] = LENGTH_EXTRA

# Distance codes 0..29: (base distance, extra bits).  RFC 1951 §3.2.5.
DIST_TABLE = (
    (1, 0), (2, 0), (3, 0), (4, 0),
    (5, 1), (7, 1), (9, 2), (13, 2),
    (17, 3), (25, 3), (33, 4), (49, 4),
    (65, 5), (97, 5), (129, 6), (193, 6),
    (257, 7), (385, 7), (513, 8), (769, 8),
    (1025, 9), (1537, 9), (2049, 10), (3073, 10),
    (4097, 11), (6145, 11), (8193, 12), (12289, 12),
    (16385, 13), (24577, 13),
)
DIST_BASE = np.array([b for b, _ in DIST_TABLE], dtype=np.int32)
DIST_EXTRA = np.array([e for _, e in DIST_TABLE], dtype=np.int32)

# Order in which code-length-code lengths are transmitted.  RFC 1951 §3.2.7.
CLCODE_ORDER = np.array(
    [16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15],
    dtype=np.int32,
)

# Fixed Huffman code lengths.  RFC 1951 §3.2.6.
FIXED_LITLEN_LENGTHS = np.concatenate(
    [
        np.full(144, 8, dtype=np.int32),   # 0..143
        np.full(112, 9, dtype=np.int32),   # 144..255
        np.full(24, 7, dtype=np.int32),    # 256..279
        np.full(8, 8, dtype=np.int32),     # 280..287
    ]
)
FIXED_DIST_LENGTHS = np.full(30, 5, dtype=np.int32)
FIXED_LITLEN_CODES = huffman.lsb_codes(FIXED_LITLEN_LENGTHS)
FIXED_DIST_CODES = huffman.lsb_codes(FIXED_DIST_LENGTHS)
# Bits one occurrence of a symbol spends under the fixed trees: code
# length plus extra bits (symbols 286/287 never occur in a block).
FIXED_LITLEN_COST = FIXED_LITLEN_LENGTHS[:286] + LITLEN_EXTRA
FIXED_DIST_COST = FIXED_DIST_LENGTHS + DIST_EXTRA


def dist_symbol(distances: np.ndarray) -> np.ndarray:
    """Vectorised map: distance (1..32768) -> distance-code index (0..29)."""
    return (np.searchsorted(DIST_BASE, distances, side="right") - 1).astype(np.int32)
