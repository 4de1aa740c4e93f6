"""Chunk-adaptive order-N byte-context model.

The model predicts each byte from a hash of its ``order`` predecessor
bytes.  Frequencies are kept for the (context, symbol) pairs seen so
far only: sorted pair keys ``ctx << 8 | sym``, their counts and prefix
sums over the counts, so the model's memory grows with the distinct
pairs of the message and not with ``2**table_bits``.  Every count is
Laplace +1 smoothed (every symbol always codable), and a context is
halved once its mass exceeds ``max_total`` (keeps totals within the
range coder's :data:`~repro.algorithms.ac.rangecoder.MAX_TOTAL`
precision budget and lets the model track drifting statistics).

Adaptation happens at **chunk boundaries**: within a chunk the tables
are frozen, and after a chunk is encoded (or decoded) its bytes are
folded into the counts.  Freezing buys two things:

* the whole modeling stage is vectorized numpy — context hashing and
  triple gathering are one ``searchsorted`` into the prefix sums over
  the chunk (:meth:`ContextModel.chunk_triples`), and
* modeling and entropy coding become genuinely independent stages —
  the model can race ahead of the coder by whole chunks, which is what
  the EDPC-style decoupled pipeline (DESIGN.md §5i) exploits.

Encoder and decoder run the *identical* update schedule, so their
tables stay bit-for-bit synchronized without any side channel.
Everything is integer arithmetic — deterministic across platforms.
The decoder bisects a context's own keys; only the step-wise decode
twin (``repro.algorithms.reference.ac``) builds 257-entry rows.  The
model's twin,
``repro.algorithms.reference.ac.DenseContextModel``, keeps the same
counts as a dense ``(2**table_bits, 256)`` matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

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


def _prefix_sums(counts: np.ndarray) -> np.ndarray:
    """``out[i] = counts[:i].sum()`` for ``i`` in ``0..len(counts)``."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class ContextModel:
    """Hashed order-N frequency model shared by encoder and decoder."""

    def __init__(self, config: ACConfig) -> None:
        self.config = config
        # Nonzero counts only: sorted keys ``ctx << 8 | sym``, their
        # counts, and ``_prefix[i]`` = the mass of the keys below
        # ``_keys[i]`` (one more entry than keys).
        self._keys = np.empty(0, dtype=np.int64)
        self._counts = np.empty(0, dtype=np.int64)
        self._prefix = _prefix_sums(self._counts)
        #: The one row object every untouched context shares
        #: (``row[s] == s``); decoders test for it by identity.
        self.uniform_row = list(range(257))
        self._lag_multipliers = _LAG_MULTIPLIERS[:config.order]
        self._shift = np.uint64(64 - config.table_bits)
        self._fold = np.uint64(_FOLD_MULTIPLIER)

    # -- context hashing ---------------------------------------------------

    def context_hashes(self, data: np.ndarray, start: int, stop: int) -> np.ndarray:
        """Vectorized context hash for positions ``start:stop`` of ``data``.

        ``data`` is the full uint8 message; contexts deliberately cross
        chunk boundaries.  Positions before ``order`` see zero padding.
        Returns int64 context indices in ``[0, 2**table_bits)``.
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

        One ``searchsorted`` finds, per position, where its context's
        keys start, where its own key is (or would be), the key after it
        and where the context's keys end; the prefix sums at those four
        places give ``lo``, ``freq`` and ``total`` — no per-context
        matrix, no per-symbol python work.
        """
        syms = data[start:stop].astype(np.int64)
        base = self.context_hashes(data, start, stop) << 8
        key = base | syms
        at = self._prefix[self._keys.searchsorted(
            np.concatenate((base, key, key + 1, base + 256)))].reshape(4, -1)
        return ((at[1] - at[0] + syms).tolist(), (at[2] - at[1] + 1).tolist(),
                (at[3] - at[0] + 256).tolist())

    # -- sequential decode path --------------------------------------------

    def sparse_rows(self) -> "tuple[Callable[[int], Any], memoryview, memoryview, memoryview]":
        """The frozen tables as ``ac_decompress`` bisects them: ``(row,
        lows, highs, syms)``.  Key ``i`` has symbol ``syms[i]``, ``lows[i]
        = syms[i] + prefix[i]`` and ``highs[i] = lows[i] + count + 1``.
        ``row(ctx)`` is :attr:`uniform_row` for a context with no keys
        (one dict probe), else ``(first, end, base, total)``: its keys
        are ``first:end`` and ``base`` is the mass below them.
        """
        keys, prefix = self._keys, self._prefix
        syms = keys & 255
        lows = syms + prefix[:-1]
        highs = lows + self._counts + 1
        contexts = keys >> 8
        firsts = np.flatnonzero(np.diff(contexts, prepend=-1))
        index = dict(zip(contexts[firsts].tolist(), range(len(firsts))))
        bounds = memoryview(np.append(firsts, len(keys)))
        mass = memoryview(prefix)
        uniform = self.uniform_row

        def row(ctx: int):
            at = index.get(ctx)
            if at is None:
                return uniform
            first = bounds[at]
            end = bounds[at + 1]
            base = mass[first]
            return first, end, base, mass[end] - base + 256

        return row, memoryview(lows), memoryview(highs), memoryview(syms)

    # -- adaptation --------------------------------------------------------

    def update_chunk(self, data: np.ndarray, start: int, stop: int) -> None:
        """Fold ``data[start:stop]`` into the tables (chunk boundary).

        Must be called with exactly the same (data, start, stop)
        sequence on the encode and decode sides.
        """
        hashes = self.context_hashes(data, start, stop)
        pairs, pair_counts = np.unique(
            hashes << 8 | data[start:stop], return_counts=True)
        keys, counts = self._keys, self._counts
        at = keys.searchsorted(pairs)
        seen = keys.searchsorted(pairs, side="right") > at
        counts[at[seen]] += pair_counts[seen]
        new = ~seen
        keys = np.insert(keys, at[new], pairs[new])
        counts = np.insert(counts, at[new], pair_counts[new])
        # Every context over budget is halved, touched by this chunk or
        # not: one still over after a halving is halved again at the
        # next boundary.  A halved context keeps some mass (its total
        # was > 768 over <= 256 symbols), so once seen it stays seen.
        ctx = keys >> 8
        bounds = np.append(np.flatnonzero(np.diff(ctx, prepend=-1)), len(keys))
        prefix = _prefix_sums(counts)
        over = np.diff(prefix[bounds]) + 256 > self.config.max_total
        if over.any():
            counts[np.repeat(over, np.diff(bounds))] >>= 1
            kept = counts > 0
            keys, counts = keys[kept], counts[kept]
            prefix = _prefix_sums(counts)
        self._keys, self._counts, self._prefix = keys, counts, prefix
