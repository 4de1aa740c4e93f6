"""Metrics registry: counters, gauges, and sketch-backed histograms.

The registry is deliberately simulation-friendly: every recorded value
comes from the deterministic simulated world (queue depths, byte
counts, simulated seconds), and histogram bucket boundaries are fixed
at registration, so two runs of the same experiment produce identical
metric dumps — no wall-clock randomness.

Since PR 6 every :class:`Histogram` is backed by a mergeable
:class:`~repro.obs.sketch.QuantileSketch` in addition to its fixed
buckets: the bucket counts keep the stable JSONL export shape, while
``quantile()`` answers tail-percentile queries with a guaranteed
relative error and ``merge()`` combines instruments across registries
(the fleet roll-up in :mod:`repro.obs.aggregate`).

Registries may carry an immutable **label set** (``worker``,
``gateway``, ``tenant``, ``algo``, ``direction``, ``path``, or any
other key) identifying which fleet member produced them; labels are
fixed at construction and drive the group-by in the fleet aggregator.

Like the tracer, the module-level registry defaults to a no-op
(:data:`NULL_METRICS`): instrumented hot paths pay a single attribute
check and allocate nothing when collection is disabled.  Enable with
:func:`set_metrics` or the :func:`collecting` context manager.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from typing import Any, Mapping, Sequence

from repro.obs.sketch import DEFAULT_ALPHA, QuantileSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "get_metrics",
    "set_metrics",
    "collecting",
    "QUEUE_DEPTH_BUCKETS",
    "SIM_SECONDS_BUCKETS",
    "BYTES_BUCKETS",
    "RETRY_ATTEMPT_BUCKETS",
]

# Shared fixed boundaries (upper-inclusive bucket edges, +inf implied).
QUEUE_DEPTH_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
SIM_SECONDS_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0,
)
BYTES_BUCKETS: tuple[float, ...] = (
    1024.0, 16384.0, 65536.0, 262144.0, 1048576.0, 16777216.0, 134217728.0,
)
# Failed-attempt counts per operation (fault-injection retry layer).
RETRY_ATTEMPT_BUCKETS: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)

# Process-wide update sequence shared by every Gauge: the fleet merge
# resolves "last write wins" by this stamp, which makes the roll-up
# independent of the order registries are merged in.
_GAUGE_SEQ = itertools.count(1)


class Counter:
    """Monotonically increasing sum."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} increment {amount} < 0")
        self.value += amount

    def merge(self, other: "Counter") -> "Counter":
        """Fleet roll-up: counters sum (order-independent)."""
        self.value += other.value
        return self


class Gauge:
    """Last-set value, with observed min/max."""

    __slots__ = ("name", "value", "min", "max", "updates", "seq")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.updates = 0
        self.seq = 0  # stamp of the most recent set() (0 = never set)

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1
        self.seq = next(_GAUGE_SEQ)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "Gauge") -> "Gauge":
        """Fleet roll-up: latest write (by update stamp) wins; min/max
        and update counts pool.  Order-independent."""
        if other.seq > self.seq:
            self.value = other.value
            self.seq = other.seq
        self.updates += other.updates
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        return self


class Histogram:
    """Fixed-boundary histogram with a mergeable quantile sketch.

    ``boundaries`` are **upper-inclusive** edges: a value lands in the
    first bucket whose edge is >= the value, so a value exactly on a
    boundary deterministically belongs to that boundary's own bucket
    (``observe(2.0)`` with edges ``(1.0, 2.0, 4.0)`` counts in the
    ``<=2.0`` bucket, never the ``<=4.0`` one).  Values above the last
    edge land in the implicit **+Inf overflow bucket** — the last
    element of ``counts``, so ``len(counts) == len(boundaries) + 1`` —
    and are included in ``count``/``snapshot()`` totals like any other
    observation.  NaN observations are rejected (they have no
    deterministic bucket).

    Every observation also feeds the backing
    :class:`~repro.obs.sketch.QuantileSketch`, which answers
    :meth:`quantile` and makes histograms mergeable across registries.
    """

    __slots__ = ("name", "boundaries", "counts", "sum", "count", "sketch")

    def __init__(self, name: str, boundaries: Sequence[float],
                 alpha: float = DEFAULT_ALPHA) -> None:
        edges = tuple(float(b) for b in boundaries)
        if not edges:
            raise ValueError(f"histogram {name!r} needs at least one edge")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError(f"histogram {name!r} edges must be increasing")
        self.name = name
        self.boundaries = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0
        self.sketch = QuantileSketch(alpha)

    def observe(self, value: float, exemplar: Any = None) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(
                f"histogram {self.name!r} cannot observe NaN"
            )
        # bisect_left on upper-inclusive edges: an exact boundary hit
        # resolves to that edge's own bucket; anything past the last
        # edge resolves to len(boundaries) — the +Inf overflow bucket.
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1
        self.sketch.add(value, exemplar)

    def quantile(self, q: float) -> float:
        """Sketch-backed quantile (``q`` in [0, 1]) within the sketch's
        relative-error bound; raises ``ValueError`` when empty."""
        return self.sketch.quantile(q)

    def copy(self) -> "Histogram":
        """An independent histogram equal to this one — exactly what
        merging it into an empty one with the same grid gives."""
        twin = Histogram.__new__(Histogram)
        twin.name = self.name
        twin.boundaries = self.boundaries
        twin.counts = list(self.counts)
        twin.sum = self.sum
        twin.count = self.count
        twin.sketch = self.sketch.copy()
        return twin

    def merge(self, other: "Histogram") -> "Histogram":
        """Fleet roll-up: pool bucket counts and sketches in place.

        Requires identical boundaries (the grids must line up); the
        sketches enforce their own alpha match.
        """
        if other.boundaries != self.boundaries:
            raise ValueError(
                f"histogram {self.name!r} boundary mismatch: "
                f"{self.boundaries} vs {other.boundaries}"
            )
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.sum += other.sum
        self.count += other.count
        self.sketch.merge(other.sketch)
        return self

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state.  ``counts`` carries every bucket including
        the trailing +Inf overflow bucket, broken out again under
        ``overflow``; ``count`` is the total across all of them."""
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "overflow": self.counts[-1],
            "sum": self.sum,
            "count": self.count,
        }

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


def _freeze_labels(labels: "Mapping[str, str] | None",
                   ) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    frozen = []
    for key in sorted(labels):
        value = labels[key]
        if not isinstance(key, str) or not isinstance(value, str):
            raise TypeError(
                f"labels must be str -> str, got {key!r}={value!r}"
            )
        frozen.append((key, value))
    return tuple(frozen)


class MetricsRegistry:
    """Name-addressed instrument store with convenience recorders.

    ``labels`` (optional) is an immutable ``str -> str`` mapping
    identifying the fleet member this registry belongs to; the fleet
    aggregator groups and merges registries by these labels.
    """

    recording = True

    def __init__(self, labels: "Mapping[str, str] | None" = None) -> None:
        self._labels = _freeze_labels(labels)
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    @property
    def labels(self) -> "tuple[tuple[str, str], ...]":
        """Immutable, sorted ``(key, value)`` pairs."""
        return self._labels

    @property
    def label_dict(self) -> dict[str, str]:
        return dict(self._labels)

    # -- instrument accessors (create on first use) ------------------------

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str,
                  boundaries: Sequence[float] = SIM_SECONDS_BUCKETS) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram(name, boundaries)
        return h

    # -- one-line recorders (the style instrumented code uses) -------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                boundaries: Sequence[float] = SIM_SECONDS_BUCKETS,
                exemplar: Any = None) -> None:
        self.histogram(name, boundaries).observe(value, exemplar=exemplar)

    # -- export ------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot of every instrument."""
        snapshot: dict[str, Any] = {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {
                n: {
                    "value": g.value,
                    "min": None if g.updates == 0 else g.min,
                    "max": None if g.updates == 0 else g.max,
                    "updates": g.updates,
                }
                for n, g in sorted(self.gauges.items())
            },
            "histograms": {
                n: h.snapshot() for n, h in sorted(self.histograms.items())
            },
        }
        if self._labels:
            snapshot["labels"] = self.label_dict
        return snapshot


class NullMetrics:
    """Disabled registry: every recorder is a no-op."""

    recording = False
    labels: tuple = ()

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float,
                boundaries: Sequence[float] = (),
                exemplar: Any = None) -> None:
        pass


NULL_METRICS = NullMetrics()

_current: "MetricsRegistry | NullMetrics" = NULL_METRICS


def get_metrics() -> "MetricsRegistry | NullMetrics":
    """The process-wide registry (no-op :data:`NULL_METRICS` by default)."""
    return _current


def set_metrics(registry: "MetricsRegistry | NullMetrics | None",
                ) -> "MetricsRegistry | NullMetrics":
    """Install ``registry`` globally (None resets); returns the previous."""
    global _current
    previous = _current
    _current = NULL_METRICS if registry is None else registry
    return previous


class collecting:
    """``with collecting(MetricsRegistry()) as m:`` — scoped installation."""

    def __init__(self, registry: "MetricsRegistry | None" = None) -> None:
        self.registry = registry or MetricsRegistry()
        self._previous: "MetricsRegistry | NullMetrics | None" = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = set_metrics(self.registry)
        return self.registry

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_metrics(self._previous)
        return False
