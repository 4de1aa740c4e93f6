"""Mergeable relative-error quantile sketch (DDSketch-style).

Fixed-bucket histograms (PR 1) answer "how many observations fell in
this band" but cannot answer "what is p99" with a guaranteed error, and
two histograms with different boundaries cannot be combined.  The fleet
telemetry plane (§5h in DESIGN.md) needs both: per-worker registries
that roll up into one snapshot, and tail percentiles whose error is
bounded no matter how many registries were merged.

:class:`QuantileSketch` stores counts in logarithmically-spaced buckets
keyed by an integer index.  With relative accuracy ``alpha`` the bucket
ratio is ``gamma = (1 + alpha) / (1 - alpha)``; bucket ``i`` covers the
interval ``(gamma**(i-1), gamma**i]`` and is represented by
``2 * gamma**i / (gamma + 1)``, which sits within ``alpha`` relative
error of *every* value in the bucket (the ratio to the two bucket
edges is exactly ``1 + alpha`` and ``1 - alpha``, by construction).

Properties the telemetry plane relies on:

* **determinism** — pure float/dict arithmetic, no randomness: the same
  observation sequence always produces the same sketch and the same
  quantile answers (the bench gates stay bit-for-bit);
* **mergeability** — :meth:`merge` adds bucket counts, so
  ``merge(a, b)`` is exactly the sketch of the pooled stream and the
  ``alpha`` guarantee survives any merge tree (order-independent);
* **bounded error** — :meth:`quantile` returns a value within ``alpha``
  relative error of the exact quantile of everything added.

Observations of exactly zero land in a dedicated zero bucket; negative
values go to a mirrored negative store (latencies never need it, but
merge semantics stay total).  Each sketch also retains a small,
deterministic set of *exemplars* — the largest observed values with an
optional back-link (a span index) — so a fat tail in a fleet snapshot
can be traced back to the concrete spans that caused it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Any, Iterable

__all__ = ["QuantileSketch", "DEFAULT_ALPHA", "EXEMPLAR_CAPACITY"]

DEFAULT_ALPHA = 0.01
# Exemplars kept per sketch: the K largest (value, link) pairs.
EXEMPLAR_CAPACITY = 8

# Values with magnitude below this collapse into the zero bucket; sim
# latencies are >= microseconds, so nothing real is ever clipped.
_MIN_TRACKED = 1e-12


class QuantileSketch:
    """Deterministic DDSketch-style sketch with exemplar retention."""

    __slots__ = (
        "alpha", "_gamma", "_log_gamma",
        "pos", "neg", "zero_count",
        "count", "sum", "min", "max",
        "exemplars",
    )

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha {alpha} outside (0, 1)")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self.pos: dict[int, int] = {}
        self.neg: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        # Sorted ascending by (value, link-repr); capped at
        # EXEMPLAR_CAPACITY, keeping the largest values (the tail).
        self.exemplars: list[tuple[float, Any]] = []

    # -- keys --------------------------------------------------------------

    def _key(self, magnitude: float) -> int:
        """Bucket index for a positive magnitude (> _MIN_TRACKED)."""
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def _representative(self, key: int) -> float:
        """Representative of bucket ``key``: ``2*gamma**key / (gamma+1)``.

        For any value ``x`` in the bucket ``(gamma**(key-1), gamma**key]``
        the ratio to this representative spans exactly ``[1-alpha,
        1+alpha]`` (the arithmetic midpoint would overshoot to
        ``alpha/(1-alpha)`` at the lower edge), so the advertised bound
        is tight, not approximate."""
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    # -- recording ---------------------------------------------------------

    def add(self, value: float, exemplar: Any = None) -> None:
        """Record one observation, optionally tagged with an exemplar
        link (e.g. a span index)."""
        value = float(value)
        if math.isnan(value):
            raise ValueError("cannot add NaN to a quantile sketch")
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        magnitude = abs(value)
        if magnitude <= _MIN_TRACKED:
            self.zero_count += 1
        elif value > 0.0:
            key = self._key(magnitude)
            self.pos[key] = self.pos.get(key, 0) + 1
        else:
            key = self._key(magnitude)
            self.neg[key] = self.neg.get(key, 0) + 1
        if exemplar is not None:
            self._note_exemplar(value, exemplar)

    def _note_exemplar(self, value: float, link: Any) -> None:
        """Insert in ``(value, repr(link))`` order (after equal keys, as
        a stable sort of the appended pair would) and drop the head past
        capacity."""
        exemplars = self.exemplars
        key = (value, repr(link))
        if (len(exemplars) >= EXEMPLAR_CAPACITY
                and key < _exemplar_key(exemplars[0])):
            return  # below everything kept: it would be the head dropped
        exemplars.insert(bisect_right(exemplars, key, key=_exemplar_key),
                         (value, link))
        if len(exemplars) > EXEMPLAR_CAPACITY:
            del exemplars[: len(exemplars) - EXEMPLAR_CAPACITY]

    # -- merging -----------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch in place; returns ``self``.

        Requires matching ``alpha`` (bucket grids must line up).  The
        result is bucket-exact: identical to having added both streams
        to one sketch, in any order.
        """
        if not isinstance(other, QuantileSketch):
            raise TypeError(f"cannot merge {type(other).__name__}")
        if other.alpha != self.alpha:
            raise ValueError(
                f"alpha mismatch: {self.alpha} vs {other.alpha}"
            )
        for mine, theirs in ((self.pos, other.pos), (self.neg, other.neg)):
            get = mine.get
            for key, n in theirs.items():
                mine[key] = get(key, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        for value, link in other.exemplars:
            self._note_exemplar(value, link)
        return self

    def copy(self) -> "QuantileSketch":
        """An independent sketch equal to this one — exactly what
        merging it into an empty sketch of the same alpha gives."""
        twin = QuantileSketch.__new__(QuantileSketch)
        twin.alpha = self.alpha
        twin._gamma = self._gamma
        twin._log_gamma = self._log_gamma
        twin.pos = dict(self.pos)
        twin.neg = dict(self.neg)
        twin.zero_count = self.zero_count
        twin.count = self.count
        twin.sum = self.sum
        twin.min = self.min
        twin.max = self.max
        twin.exemplars = list(self.exemplars)
        return twin

    @classmethod
    def merged(cls, sketches: "Iterable[QuantileSketch]",
               alpha: "float | None" = None) -> "QuantileSketch":
        """A fresh sketch equal to the fold of ``sketches``."""
        out: QuantileSketch | None = None
        for sketch in sketches:
            if out is None:
                out = cls(sketch.alpha if alpha is None else alpha)
            out.merge(sketch)
        return out if out is not None else cls(DEFAULT_ALPHA if alpha is None
                                              else alpha)

    # -- queries -----------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], within ``alpha`` relative
        error of the exact quantile of the added stream.

        Raises :class:`ValueError` on an empty sketch (callers decide
        whether empty means NaN, 0.0, or an error — see the serve
        gateway's ``sample_count`` contract).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            raise ValueError("quantile of an empty sketch")
        # Nearest-rank on the bucketed distribution: negatives from the
        # most negative up, then zeros, then positives ascending.
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for key in sorted(self.neg, reverse=True):
            seen += self.neg[key]
            if seen >= rank:
                return min(max(-self._representative(key), self.min), self.max)
        seen += self.zero_count
        if seen >= rank:
            return 0.0
        for key in sorted(self.pos):
            seen += self.pos[key]
            if seen >= rank:
                # Clamp into the observed range: the true min/max are
                # tracked exactly and tighter than bucket bounds.
                return min(max(self._representative(key), self.min), self.max)
        return self.max  # pragma: no cover - unreachable (counts add up)

    def count_above(self, threshold: float) -> int:
        """Observations *guaranteed* above ``threshold`` (> 0).

        Bucket-granular: the bucket containing ``threshold`` is
        excluded, so the answer under-counts by at most that one
        bucket's population (``alpha`` relative in value).  The SLO
        burn-rate monitor uses this as its "bad request" counter.
        """
        if threshold <= 0.0:
            raise ValueError(f"threshold {threshold} must be positive")
        cutoff = self._key(max(threshold, _MIN_TRACKED))
        return sum(n for key, n in self.pos.items() if key > cutoff)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- (de)serialisation -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready state (bucket keys as strings, sorted)."""
        return {
            "alpha": self.alpha,
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "zero": self.zero_count,
            "pos": {str(k): self.pos[k] for k in sorted(self.pos)},
            "neg": {str(k): self.neg[k] for k in sorted(self.neg)},
            "exemplars": [[v, link] for v, link in self.exemplars],
        }

    @classmethod
    def from_dict(cls, state: dict[str, Any]) -> "QuantileSketch":
        sketch = cls(state["alpha"])
        sketch.count = int(state["count"])
        sketch.sum = float(state["sum"])
        sketch.min = math.inf if state["min"] is None else float(state["min"])
        sketch.max = -math.inf if state["max"] is None else float(state["max"])
        sketch.zero_count = int(state["zero"])
        sketch.pos = {int(k): int(n) for k, n in state["pos"].items()}
        sketch.neg = {int(k): int(n) for k, n in state["neg"].items()}
        sketch.exemplars = [(float(v), link) for v, link in state["exemplars"]]
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"QuantileSketch(alpha={self.alpha}, count={self.count}, "
            f"buckets={len(self.pos) + len(self.neg)})"
        )


def _exemplar_key(pair: "tuple[float, Any]") -> "tuple[float, str]":
    """The order exemplars are kept in: value, then the link's repr."""
    return pair[0], repr(pair[1])
