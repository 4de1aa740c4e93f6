"""Fleet aggregation: labeled registries rolled up into one snapshot.

PR 1's single process-wide :class:`~repro.obs.metrics.MetricsRegistry`
cannot describe a fleet: N gateways front M DPU workers, each with its
own registry, and questions like "fleet-wide p99" or "tenant A's
latency across every worker" need those registries *merged* — which the
sketch-backed histograms (:mod:`repro.obs.sketch`) make lossless in the
quantile-error sense.

Merge semantics (all order-independent):

* **counters** sum;
* **gauges** keep the most recent write (by the process-wide update
  stamp every ``Gauge.set`` takes), and pool min/max/update counts;
* **histograms** sum bucket counts and merge sketches — identical
  boundaries required, quantile error stays within the sketch alpha.

:class:`FleetAggregator` owns the list of member registries and builds
:class:`FleetSnapshot` views, optionally grouped by a label key subset
(e.g. ``group_by=("tenant",)`` for per-tenant SLO evaluation).  Scrapes
are **delta-aware**: each :meth:`scrape` records the counter deltas
since the previous scrape so rate-style consumers (the SLO monitor's
burn windows) see windowed movement, not lifetime totals.

:func:`scrape_process` is the sim-clock driver: a generator process
that scrapes on a fixed simulated interval.  Scraping only *reads*
member registries — it never touches simulation state, so a run with a
scrape loop is bit-for-bit identical to one without.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Sequence

from repro.obs.metrics import Gauge, MetricsRegistry

if TYPE_CHECKING:
    from repro.sim.engine import Environment

__all__ = [
    "merge_registries",
    "FleetSnapshot",
    "FleetAggregator",
    "scrape_process",
]


def merge_registries(registries: "Iterable[MetricsRegistry]",
                     labels: "dict[str, str] | None" = None) -> MetricsRegistry:
    """A fresh registry equal to the fold of ``registries``.

    The inputs are read, never mutated.  Instrument-level semantics are
    the ``merge`` methods on Counter/Gauge/Histogram (sum / last-write
    / bucket+sketch pool).

    The fold runs in **sorted label order**, not input order: gauge
    last-write-by-seq keeps the first-seen value on *equal* seq stamps,
    so folding in caller order made the merged snapshot depend on
    scrape/registration ordering whenever two registries carried the
    same seq (common when gauges are restored from serialized snapshots
    that share stamps).  Sorting on each member's immutable label tuple
    — its identity within a fleet — makes merges byte-identical across
    orderings; equal-label members (rare, discouraged) keep input order
    via sort stability.
    """
    out = MetricsRegistry(labels=labels)
    for registry in sorted(registries, key=lambda r: r.labels):
        for name, counter in registry.counters.items():
            out.counter(name).merge(counter)
        for name, gauge in registry.gauges.items():
            out.gauge(name).merge(gauge)
        for name, hist in registry.histograms.items():
            mine = out.histograms.get(name)
            if mine is None:
                # What merging into an empty histogram gives, bit for bit.
                out.histograms[name] = hist.copy()
            else:
                mine.merge(hist)
    return out


class FleetSnapshot:
    """One merged view of the fleet at a scrape instant.

    ``overall`` is the all-members merge; ``groups`` maps label-value
    tuples (ordered like ``group_by``) to the merge of the members
    carrying those values.  Members missing a ``group_by`` key land
    under the empty-string value for it.
    """

    __slots__ = ("sim_now", "group_by", "overall", "groups",
                 "counter_deltas", "interval_s")

    def __init__(self, sim_now: float, group_by: "tuple[str, ...]",
                 overall: MetricsRegistry,
                 groups: "dict[tuple[str, ...], MetricsRegistry]",
                 counter_deltas: "dict[str, float]",
                 interval_s: float) -> None:
        self.sim_now = sim_now
        self.group_by = group_by
        self.overall = overall
        self.groups = groups
        # Movement of each fleet-summed counter since the previous
        # scrape (equal to the totals on the first scrape).
        self.counter_deltas = counter_deltas
        self.interval_s = interval_s  # sim seconds since previous scrape

    def group(self, *values: str) -> "MetricsRegistry | None":
        return self.groups.get(tuple(values))

    def quantile(self, name: str, q: float) -> float:
        """Fleet-wide quantile of histogram ``name`` (sketch-backed)."""
        return self.overall.histograms[name].quantile(q)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready dump (the ``--metrics`` fleet snapshot shape)."""
        return {
            "sim_now": self.sim_now,
            "interval_s": self.interval_s,
            "group_by": list(self.group_by),
            "overall": self.overall.as_dict(),
            "counter_deltas": dict(sorted(self.counter_deltas.items())),
            "groups": {
                "|".join(key): reg.as_dict()
                for key, reg in sorted(self.groups.items())
            },
        }


class FleetAggregator:
    """Registry-of-registries with delta-aware scrapes.

    Members are registered once (per worker, per gateway, per tenant
    shard — whatever granularity produced them) and every
    :meth:`scrape` folds them into a fresh :class:`FleetSnapshot`.
    Aggregation recomputes from the members' current state each time,
    so late registration is safe; deltas are tracked on the fleet-level
    counter sums between consecutive scrapes.
    """

    def __init__(self) -> None:
        self._members: list[MetricsRegistry] = []
        self._member_ids: set[int] = set()
        # group_by -> {label values: members}; labels never change, so
        # this only goes stale when a member joins.
        self._buckets: "dict[tuple[str, ...], dict]" = {}
        self._last_counters: dict[str, float] = {}
        self._last_scrape_s = 0.0
        self.scrapes = 0
        self.history: list[FleetSnapshot] = []
        self.history_limit = 256

    def register(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Add one member registry (idempotent per object); returns it."""
        if not isinstance(registry, MetricsRegistry):
            raise TypeError(
                f"can only aggregate MetricsRegistry, got "
                f"{type(registry).__name__}"
            )
        if id(registry) not in self._member_ids:
            self._member_ids.add(id(registry))
            self._members.append(registry)
            self._buckets.clear()
        return registry

    @property
    def members(self) -> "tuple[MetricsRegistry, ...]":
        return tuple(self._members)

    def _grouped(self, group_by: "tuple[str, ...]",
                 ) -> "dict[tuple[str, ...], MetricsRegistry]":
        if not group_by:
            return {}
        buckets = self._buckets.get(group_by)
        if buckets is None:
            buckets = self._buckets[group_by] = {}
            for member in self._members:
                labels = member.label_dict
                key = tuple(labels.get(k, "") for k in group_by)
                buckets.setdefault(key, []).append(member)
        return {
            key: merge_registries(members, labels=dict(zip(group_by, key)))
            for key, members in buckets.items()
        }

    def scrape(self, now_s: float = 0.0,
               group_by: "Sequence[str]" = ()) -> FleetSnapshot:
        """Merge every member into a snapshot stamped ``now_s``."""
        group_by = tuple(group_by)
        overall = merge_registries(self._members)
        totals = {n: c.value for n, c in overall.counters.items()}
        deltas = {
            name: value - self._last_counters.get(name, 0.0)
            for name, value in totals.items()
        }
        snapshot = FleetSnapshot(
            sim_now=now_s,
            group_by=group_by,
            overall=overall,
            groups=self._grouped(group_by),
            counter_deltas=deltas,
            interval_s=(now_s - self._last_scrape_s) if self.scrapes else 0.0,
        )
        self._last_counters = totals
        self._last_scrape_s = now_s
        self.scrapes += 1
        self.history.append(snapshot)
        if len(self.history) > self.history_limit:
            del self.history[: len(self.history) - self.history_limit]
        return snapshot

    def latest(self) -> "FleetSnapshot | None":
        return self.history[-1] if self.history else None


def scrape_process(
    env: "Environment",
    aggregator: FleetAggregator,
    interval_s: float,
    group_by: "Sequence[str]" = (),
    on_scrape: "Callable[[FleetSnapshot], Any] | None" = None,
) -> Generator:
    """Sim process: scrape ``aggregator`` every ``interval_s`` sim
    seconds, forever (run it with ``env.process`` and let the run's
    horizon bound it).  ``on_scrape`` receives each snapshot — the SLO
    monitor's entry point."""
    if interval_s <= 0.0:
        raise ValueError(f"scrape interval {interval_s} must be positive")
    while True:
        yield env.timeout(interval_s)
        snapshot = aggregator.scrape(env.now, group_by=group_by)
        if on_scrape is not None:
            on_scrape(snapshot)
