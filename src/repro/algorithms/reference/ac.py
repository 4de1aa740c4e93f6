"""Deliberately-simple bitwise arithmetic coder (differential oracle).

A textbook Witten–Neal–Cleary coder: 32-bit ``low``/``high`` interval,
bit-at-a-time renormalization with explicit pending-bit (underflow)
tracking, MSB-first bit IO.  It is written for obviousness, not speed —
its only job is to consume the *same* model trace as the production
range coder (:mod:`repro.algorithms.ac.rangecoder`) and prove, case by
case, that the fast coder loses nothing: identical decoded output and
corpus compression ratio within 0.1%.

Kept deliberately independent: no shared coder code, different
renormalization style (bitwise vs byte-wise), different carry handling
(pending bits vs cache+0xFF run).  A bug in one is vanishingly unlikely
to be mirrored in the other.

Also here: :func:`decode_stepwise`, the one-call-per-step twin of
``ac_decompress``'s fused loop, over :class:`RowContextModel`'s
257-entry cumulative rows; the per-position twins of
``ContextModel.context_hashes`` (:func:`context_hashes`,
:func:`context_hash_scalar`); and :class:`DenseContextModel`, the
model's counts as the dense ``(2**table_bits, 256)`` matrix that
``ContextModel`` keeps only the nonzero entries of.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from repro.algorithms.ac.codec import CodingBatch, model_batches
from repro.algorithms.ac.model import ACConfig, ContextModel
from repro.errors import CorruptStreamError

import numpy as np

_CODE_BITS = 32
_MASK = (1 << _CODE_BITS) - 1
_HALF = 1 << (_CODE_BITS - 1)
_QUARTER = 1 << (_CODE_BITS - 2)
_THREE_QUARTERS = 3 * _QUARTER


class _BitWriter:
    def __init__(self) -> None:
        self._bits: list[int] = []

    def put(self, bit: int) -> None:
        self._bits.append(bit)

    def put_with_pending(self, bit: int, pending: int) -> None:
        self.put(bit)
        inverse = bit ^ 1
        for _ in range(pending):
            self.put(inverse)

    def to_bytes(self) -> bytes:
        bits = self._bits
        out = bytearray((len(bits) + 7) // 8)
        for i, bit in enumerate(bits):
            if bit:
                out[i >> 3] |= 0x80 >> (i & 7)
        return bytes(out)


class _BitReader:
    """MSB-first reader; reads past the end yield 0 (WNC convention)."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def get(self) -> int:
        i = self._pos
        self._pos += 1
        if i >= 8 * len(self._data):
            return 0
        return (self._data[i >> 3] >> (7 - (i & 7))) & 1


class ReferenceEncoder:
    """Bit-at-a-time arithmetic encoder over frequency triples."""

    def __init__(self) -> None:
        self.low = 0
        self.high = _MASK
        self.pending = 0
        self._writer = _BitWriter()

    def encode(self, cum_lo: int, freq: int, total: int) -> None:
        span = self.high - self.low + 1
        self.high = self.low + (span * (cum_lo + freq)) // total - 1
        self.low = self.low + (span * cum_lo) // total
        while True:
            if self.high < _HALF:
                self._writer.put_with_pending(0, self.pending)
                self.pending = 0
            elif self.low >= _HALF:
                self._writer.put_with_pending(1, self.pending)
                self.pending = 0
                self.low -= _HALF
                self.high -= _HALF
            elif self.low >= _QUARTER and self.high < _THREE_QUARTERS:
                self.pending += 1
                self.low -= _QUARTER
                self.high -= _QUARTER
            else:
                break
            self.low = self.low << 1
            self.high = (self.high << 1) | 1

    def flush(self) -> bytes:
        self.pending += 1
        if self.low < _QUARTER:
            self._writer.put_with_pending(0, self.pending)
        else:
            self._writer.put_with_pending(1, self.pending)
        return self._writer.to_bytes()


class ReferenceDecoder:
    def __init__(self, data: bytes) -> None:
        self._reader = _BitReader(data)
        self.low = 0
        self.high = _MASK
        self.value = 0
        for _ in range(_CODE_BITS):
            self.value = (self.value << 1) | self._reader.get()

    def decode_target(self, total: int) -> int:
        span = self.high - self.low + 1
        target = ((self.value - self.low + 1) * total - 1) // span
        if not 0 <= target < total:
            raise CorruptStreamError(
                f"reference decoder target {target} outside [0, {total})"
            )
        return target

    def consume(self, cum_lo: int, freq: int, total: int) -> None:
        span = self.high - self.low + 1
        self.high = self.low + (span * (cum_lo + freq)) // total - 1
        self.low = self.low + (span * cum_lo) // total
        while True:
            if self.high < _HALF:
                pass
            elif self.low >= _HALF:
                self.low -= _HALF
                self.high -= _HALF
                self.value -= _HALF
            elif self.low >= _QUARTER and self.high < _THREE_QUARTERS:
                self.low -= _QUARTER
                self.high -= _QUARTER
                self.value -= _QUARTER
            else:
                break
            self.low = self.low << 1
            self.high = (self.high << 1) | 1
            self.value = (self.value << 1) | self._reader.get()


def reference_encode_batches(batches: Iterable[CodingBatch]) -> bytes:
    enc = ReferenceEncoder()
    for batch in batches:
        for lo, fr, tot in zip(batch.cum_lo, batch.freq, batch.total):
            enc.encode(lo, fr, tot)
    return enc.flush()


def reference_compress_payload(data: bytes, config: "ACConfig | None" = None) -> bytes:
    """Coded payload (no container header) for ``data``."""
    if config is None:
        config = ACConfig()
    if not data:
        return b""
    return reference_encode_batches(model_batches(data, config))


def reference_decompress_payload(
    payload: bytes, length: int, config: "ACConfig | None" = None
) -> bytes:
    """Decode ``length`` symbols from a reference-coded payload."""
    return decode_stepwise(ReferenceDecoder(payload), length, config or ACConfig())


def decode_stepwise(decoder, length: int, config: ACConfig) -> bytes:
    """Decode one ``decode_target`` / ``consume`` step at a time.

    With a :class:`ReferenceDecoder` this is the bitwise oracle; with a
    ``RangeDecoder`` it is the twin ``ac_decompress``'s fused loop is
    tested and timed against.
    """
    model = RowContextModel(config)
    out = np.empty(length, dtype=np.uint8)
    history: list[int] = []
    order = config.order
    start = 0
    while start < length:
        stop = min(start + config.chunk_bytes, length)
        for pos in range(start, stop):
            ctx = context_hash_scalar(model, history)
            total = model.cum_row(ctx)[256]
            target = decoder.decode_target(total)
            sym = model.symbol_from_target(ctx, target)
            lo, fr, tot = model.triple(ctx, sym)
            decoder.consume(lo, fr, tot)
            out[pos] = sym
            history.append(sym)
            if len(history) > order:
                history.pop(0)
        model.update_chunk(out, start, stop)
        start = stop
    return out.tobytes()


def context_hashes(
    model: ContextModel, data: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """Per-position twin of ``ContextModel.context_hashes``, built on
    the decoder's :func:`context_hash_scalar` twin."""
    out = np.empty(stop - start, dtype=np.int64)
    for k, pos in enumerate(range(start, stop)):
        history = [int(b) for b in data[max(pos - model.config.order, 0) : pos]]
        out[k] = context_hash_scalar(model, history)
    return out


def context_hash_scalar(model: ContextModel, history: list[int]) -> int:
    """Scalar twin of ``ContextModel.context_hashes`` for the decoder.

    ``history`` is the most recent decoded bytes, newest last; bytes
    before the start of the message are zeros.
    """
    order = model.config.order
    return model.context_hash_packed(
        int.from_bytes(bytes(history[-order:]), "big") if order else 0)


#: The +1 smoothing's share of a cumulative row: ``row[s]`` is ``s``
#: plus the counts of the symbols below ``s``.
_SYMBOL_RANKS = np.arange(257, dtype=np.int64)


class RowContextModel(ContextModel):
    """:class:`ContextModel` read one symbol at a time: the 257-entry
    cumulative row of ``counts + 1`` per context, its triples and its
    inverse lookup.  Rows are built on first use and dropped at every
    chunk boundary, the only place counts change."""

    def __init__(self, config: ACConfig) -> None:
        super().__init__(config)
        self._cum: dict[int, list[int]] = {}

    def cum_row(self, ctx: int) -> list[int]:
        """257-entry cumulative row of ``counts + 1`` for ``ctx``."""
        row = self._cum.get(ctx)
        if row is None:
            row = self._cum[ctx] = self._build_row(ctx)
        return row

    def _build_row(self, ctx: int) -> list[int]:
        first, end = self._keys.searchsorted((ctx << 8, ctx + 1 << 8)).tolist()
        if first == end:
            return self.uniform_row
        cum = np.zeros(257, dtype=np.int64)
        cum[(self._keys[first:end] & 255) + 1] = self._counts[first:end]
        return (cum.cumsum() + _SYMBOL_RANKS).tolist()

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

    def update_chunk(self, data: np.ndarray, start: int, stop: int) -> None:
        super().update_chunk(data, start, stop)
        self._cum.clear()


class DenseContextModel(RowContextModel):
    """:class:`ContextModel` over a dense ``(2**table_bits, 256)`` count
    matrix: the same triples, rows and halving, with a row and a total
    for every context whether seen or not (1 GiB of int32 at
    ``table_bits`` 20)."""

    def __init__(self, config: ACConfig) -> None:
        super().__init__(config)
        self.n_contexts = 1 << config.table_bits
        # Row = context, column = next byte.  int32 is ample (totals
        # are halved long before overflow).
        self._counts = np.zeros((self.n_contexts, 256), dtype=np.int32)
        self._totals = np.zeros(self.n_contexts, dtype=np.int64)

    def chunk_triples(
        self, data: np.ndarray, start: int, stop: int
    ) -> "tuple[list[int], list[int], list[int]]":
        """One cumulative matrix per *distinct* context in the chunk,
        then the triples by fancy indexing."""
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

    def _build_row(self, ctx: int) -> list[int]:
        if self._totals[ctx] == 0:
            return self.uniform_row
        cum = np.empty(257, dtype=np.int64)
        cum[0] = 0
        np.cumsum(self._counts[ctx] + 1, out=cum[1:])
        return cum.tolist()

    def update_chunk(self, data: np.ndarray, start: int, stop: int) -> None:
        hashes = self.context_hashes(data, start, stop)
        syms = data[start:stop].astype(np.int64)
        # Unique (context, symbol) pairs give duplicate-free fancy
        # indices, so += is safe and one C call.
        pairs, pair_counts = np.unique(hashes * 256 + syms, return_counts=True)
        self._counts[pairs >> 8, pairs & 255] += pair_counts.astype(np.int32)
        self._totals += np.bincount(hashes, minlength=self.n_contexts)
        over = np.flatnonzero(self._totals + 256 > self.config.max_total)
        if len(over):
            self._counts[over] >>= 1
            self._totals[over] = self._counts[over].sum(axis=1)
        self._cum.clear()
