"""Carry-aware byte-wise range coder (Subbotin/LZMA lineage).

The encoder keeps a 64-bit ``low`` accumulator and a 32-bit ``range``.
Narrowing an interval can carry out of the low 32 bits; the carry is
absorbed by a one-byte ``cache`` plus a run of pending ``0xFF`` bytes
(``cache_size``) that are only emitted once the carry is resolved.
Renormalization is byte-wise: whenever ``range`` drops below
``TOP = 2**24`` both registers shift left by 8 bits and one output byte
is produced.

Invariants (checked by tests/algorithms/ac/test_rangecoder.py):

* ``0 <= low < 2**33`` on entry to ``_shift_low`` (at most one carry).
* ``TOP <= range <= 2**32 - 1`` between ``encode`` calls.
* The decoder maintains ``code < range`` on well-formed streams; a
  violated invariant on corrupt input surfaces as a typed
  :class:`~repro.errors.CorruptStreamError` (never a hang), and the
  container CRC catches any silent mis-decode.

Symbols are coded from cumulative-frequency triples
``(cum_lo, freq, total)`` with ``total <= MAX_TOTAL`` so the per-symbol
division ``range // total`` never truncates to zero on valid streams.
The model producing the triples lives in :mod:`repro.algorithms.ac.model`;
this module is model-agnostic.
"""

from __future__ import annotations

from repro.errors import CorruptStreamError

TOP = 1 << 24
MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1

#: Upper bound on the ``total`` of any frequency table fed to the coder.
#: Guarantees ``range // total >= TOP // MAX_TOTAL = 128`` after
#: renormalization, so the interval never collapses on valid input.
MAX_TOTAL = 1 << 17

#: Bytes appended by :meth:`RangeEncoder.flush` / consumed by decoder init.
FLUSH_BYTES = 5


class RangeEncoder:
    """Streaming range encoder producing a ``bytes`` payload."""

    def __init__(self) -> None:
        self.low = 0
        self.range = MASK32
        self.cache = 0
        self.cache_size = 1  # accounts for the leading pad byte
        self._out = bytearray()

    def encode(self, cum_lo: int, freq: int, total: int) -> None:
        """Narrow the interval to ``[cum_lo, cum_lo + freq) / total``."""
        if not (0 < freq and 0 <= cum_lo and cum_lo + freq <= total):
            raise ValueError(
                f"bad frequency triple ({cum_lo}, {freq}, {total})"
            )
        if total > MAX_TOTAL:
            raise ValueError(f"total {total} exceeds MAX_TOTAL {MAX_TOTAL}")
        r = self.range // total
        self.low = (self.low + r * cum_lo) & MASK64
        if cum_lo + freq == total:
            # Give the top symbol the slack left by integer division so
            # the full interval stays covered (classic range-coder trick;
            # keeps the coder tight without a second division).
            self.range -= r * cum_lo
        else:
            self.range = r * freq
        while self.range < TOP:
            self.range = (self.range << 8) & MASK32
            self._shift_low()

    def _shift_low(self) -> None:
        if self.low < 0xFF00_0000 or self.low > MASK32:
            carry = self.low >> 32
            self._out.append((self.cache + carry) & 0xFF)
            ff = (0xFF + carry) & 0xFF
            for _ in range(self.cache_size - 1):
                self._out.append(ff)
            self.cache_size = 0
            self.cache = (self.low >> 24) & 0xFF
        self.cache_size += 1
        self.low = (self.low << 8) & MASK32 & MASK64

    def flush(self) -> bytes:
        """Drain the carry chain; returns the complete coded payload."""
        for _ in range(FLUSH_BYTES):
            self._shift_low()
        return bytes(self._out)


class RangeDecoder:
    """Mirror-image decoder over an in-memory coded payload.

    Exhausting the payload mid-stream raises
    :class:`~repro.errors.CorruptStreamError`; the decoder never reads
    past the buffer and never loops without consuming interval width.
    ``ac_decompress`` runs this arithmetic inline with the state in
    locals; the class is the step-wise form its tests compare it with.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self.range = MASK32
        self.code = 0
        self._r = 0
        # The encoder's cache_size starts at 1, so byte 0 is a pad byte.
        self._next_byte()
        for _ in range(FLUSH_BYTES - 1):
            self.code = (self.code << 8) | self._next_byte()

    def _next_byte(self) -> int:
        if self._pos >= len(self._data):
            raise CorruptStreamError(
                f"range-coded payload truncated at byte {self._pos}"
            )
        b = self._data[self._pos]
        self._pos += 1
        return b

    @property
    def bytes_consumed(self) -> int:
        return self._pos

    def decode_target(self, total: int) -> int:
        """Return the cumulative-frequency target for the next symbol.

        The caller maps the target back to a symbol via its model and
        then MUST call :meth:`consume` with that symbol's triple.
        """
        self._r = self.range // total
        if self._r == 0:
            raise CorruptStreamError(
                "range collapsed during decode (corrupt stream)"
            )
        target = self.code // self._r
        if target >= total:
            # Only reachable on corrupt input or via the top-symbol
            # slack; clamp so the caller resolves the last symbol.
            target = total - 1
        return target

    def consume(self, cum_lo: int, freq: int, total: int) -> None:
        """Advance past the symbol identified by ``decode_target``."""
        self.code -= self._r * cum_lo
        if cum_lo + freq == total:
            self.range -= self._r * cum_lo
        else:
            self.range = self._r * freq
        if self.code >= self.range:
            raise CorruptStreamError(
                "decoder state invariant violated (corrupt stream)"
            )
        while self.range < TOP:
            self.range = (self.range << 8) & MASK32
            self.code = (self.code << 8) | self._next_byte()
