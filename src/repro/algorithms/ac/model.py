"""Chunk-adaptive order-N byte-context model.

The model predicts each byte from a hash of its ``order`` predecessor
bytes.  Frequencies live in a dense ``(2**table_bits, 256)`` count
matrix with Laplace +1 smoothing (every symbol always codable) and
periodic halving once a context's mass exceeds ``max_total`` (keeps
totals within the range coder's
:data:`~repro.algorithms.ac.rangecoder.MAX_TOTAL` precision budget and
lets the model track drifting statistics).

Adaptation happens at **chunk boundaries**: within a chunk the tables
are frozen, and after a chunk is encoded (or decoded) its bytes are
folded into the counts.  Freezing buys two things:

* the whole modeling stage is vectorized numpy — context hashing,
  cumulative-row construction, and triple gathering are matrix ops over
  the chunk (:meth:`ContextModel.chunk_triples`), and
* modeling and entropy coding become genuinely independent stages —
  the model can race ahead of the coder by whole chunks, which is what
  the EDPC-style decoupled pipeline (DESIGN.md §5i) exploits.

Encoder and decoder run the *identical* update schedule, so their
tables stay bit-for-bit synchronized without any side channel.
Everything is integer arithmetic — deterministic across platforms.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.errors import CorruptStreamError

MASK64 = (1 << 64) - 1

#: Odd 64-bit multipliers, one per context lag (supports order <= 4).
_LAG_MULTIPLIERS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
)

#: Final avalanche multiplier before folding to ``table_bits``.
_FOLD_MULTIPLIER = 0xFF51AFD7ED558CCD

MAX_ORDER = len(_LAG_MULTIPLIERS)


@dataclass(frozen=True)
class ACConfig:
    """Tuning knobs for the adaptive-context coder.

    The defaults (order-2, 4 KiB chunks, 2^14 hashed contexts) are the
    calibrated operating point used by the golden vectors and the
    ``edpc`` bench — change them and every ``.ac.bin`` artifact changes.
    """

    order: int = 2
    chunk_bytes: int = 4096
    table_bits: int = 14
    max_total: int = 1 << 15

    def __post_init__(self) -> None:
        if not 0 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be in [0, {MAX_ORDER}]")
        if self.chunk_bytes < 256 or self.chunk_bytes & (self.chunk_bytes - 1):
            raise ValueError("chunk_bytes must be a power of two >= 256")
        if not 8 <= self.table_bits <= 20:
            raise ValueError("table_bits must be in [8, 20]")
        if not 1 << 10 <= self.max_total <= 1 << 16:
            raise ValueError("max_total must be in [2^10, 2^16]")

    @property
    def chunk_log2(self) -> int:
        return self.chunk_bytes.bit_length() - 1


class ContextModel:
    """Hashed order-N frequency model shared by encoder and decoder."""

    def __init__(self, config: ACConfig) -> None:
        self.config = config
        self.n_contexts = 1 << config.table_bits
        # Dense count matrix: row = context, column = next byte.  int32
        # is ample (totals are halved long before overflow).
        self._counts = np.zeros((self.n_contexts, 256), dtype=np.int32)
        self._totals = np.zeros(self.n_contexts, dtype=np.int64)
        #: The one row object every untouched context shares
        #: (``row[s] == s``); decoders test for it by identity.
        self.uniform_row = list(range(257))
        # Decode-side rows, built on first use and dropped when their
        # context's counts change.
        self._cum: dict[int, list[int]] = {}
        self._lag_multipliers = _LAG_MULTIPLIERS[:config.order]
        self._shift = np.uint64(64 - config.table_bits)
        self._fold = np.uint64(_FOLD_MULTIPLIER)

    # -- context hashing ---------------------------------------------------

    def context_hashes(self, data: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Vectorized context hash for positions ``start:stop`` of ``data``.

        ``data`` is the full uint8 message; contexts deliberately cross
        chunk boundaries.  Positions before ``order`` see zero padding.
        Returns int64 context indices in ``[0, n_contexts)``.
        """
        n = stop - start
        order = self.config.order
        if order == 0:
            return np.zeros(n, dtype=np.int64)
        h = np.zeros(n, dtype=np.uint64)
        if start >= order:
            # Fast path (every chunk but the first): each lag's
            # predecessor bytes are a contiguous zero-copy slice — no
            # index arrays, no masking.
            for lag in range(1, order + 1):
                h += (data[start - lag : stop - lag].astype(np.uint64)
                      * np.uint64(_LAG_MULTIPLIERS[lag - 1]))
            return ((h * self._fold) >> self._shift).astype(np.int64)
        idx = np.arange(start, stop, dtype=np.int64)
        for lag in range(1, order + 1):
            prev = np.where(
                idx >= lag, data[np.maximum(idx - lag, 0)], 0
            ).astype(np.uint64)
            h += prev * np.uint64(_LAG_MULTIPLIERS[lag - 1])
        return ((h * self._fold) >> self._shift).astype(np.int64)

    def context_hash_packed(self, history: int) -> int:
        """:meth:`context_hashes` at one position, from the last
        ``order`` bytes packed into one int, newest in the low byte."""
        h = 0
        for multiplier in self._lag_multipliers:
            h += (history & 255) * multiplier
            history >>= 8
        return (((h & MASK64) * _FOLD_MULTIPLIER & MASK64)
                >> 64 - self.config.table_bits)

    # -- vectorized encode path --------------------------------------------

    def chunk_triples(
        self, data: np.ndarray, start: int, stop: int
    ) -> "tuple[list[int], list[int], list[int]]":
        """Frequency triples for every position in a frozen chunk.

        One cumulative matrix is built per *distinct* context in the
        chunk, then triples are gathered with fancy indexing — no
        per-symbol python work.
        """
        hashes = self.context_hashes(data, start, stop)
        syms = data[start:stop].astype(np.int64)
        uniq, inv = np.unique(hashes, return_inverse=True)
        block = self._counts[uniq].astype(np.int64) + 1
        mat = np.zeros((len(uniq), 257), dtype=np.int64)
        np.cumsum(block, axis=1, out=mat[:, 1:])
        lo = mat[inv, syms]
        fr = mat[inv, syms + 1] - lo
        tot = mat[inv, 256]
        return lo.tolist(), fr.tolist(), tot.tolist()

    # -- sequential decode path --------------------------------------------

    def cum_row(self, ctx: int) -> list[int]:
        """257-entry cumulative row of ``counts + 1`` for ``ctx``."""
        row = self._cum.get(ctx)
        if row is not None:
            return row
        if self._totals[ctx] == 0:
            return self.uniform_row
        cum = np.empty(257, dtype=np.int64)
        cum[0] = 0
        np.cumsum(self._counts[ctx] + 1, out=cum[1:])
        row = cum.tolist()
        self._cum[ctx] = row
        return row

    def triple(self, ctx: int, symbol: int) -> "tuple[int, int, int]":
        row = self.cum_row(ctx)
        lo = row[symbol]
        return lo, row[symbol + 1] - lo, row[256]

    def symbol_from_target(self, ctx: int, target: int) -> int:
        """Inverse lookup: cumulative target -> symbol (decoder side)."""
        row = self.cum_row(ctx)
        if not 0 <= target < row[256]:
            raise CorruptStreamError(
                f"cumulative target {target} outside model range {row[256]}"
            )
        # rows are strictly increasing (+1 smoothing), so bisect is exact
        return bisect.bisect_right(row, target) - 1

    # -- adaptation --------------------------------------------------------

    def update_chunk(self, data: np.ndarray, start: int, stop: int) -> None:
        """Fold ``data[start:stop]`` into the tables (chunk boundary).

        Must be called with exactly the same (data, start, stop)
        sequence on the encode and decode sides.
        """
        hashes = self.context_hashes(data, start, stop)
        syms = data[start:stop].astype(np.int64)
        # Sort-based pair counting: unique (context, symbol) pairs give
        # duplicate-free fancy indices, so += is safe and one C call.
        pairs, pair_counts = np.unique(hashes * 256 + syms, return_counts=True)
        self._counts[pairs >> 8, pairs & 255] += pair_counts.astype(np.int32)
        self._totals += np.bincount(
            hashes, minlength=self.n_contexts
        )
        over = np.flatnonzero(self._totals + 256 > self.config.max_total)
        if len(over):
            self._counts[over] >>= 1
            self._totals[over] = self._counts[over].sum(axis=1)
        if self._cum:
            # A context still over after one halving is halved again at
            # the next boundary even if that chunk never touched it.
            for ctx in np.union1d(hashes, over).tolist():
                self._cum.pop(ctx, None)

    # -- introspection (tests) ---------------------------------------------

    @property
    def touched_contexts(self) -> int:
        return int(np.count_nonzero(self._totals))
