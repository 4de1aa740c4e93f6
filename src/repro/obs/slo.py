"""Per-tenant SLO monitoring with multi-window burn-rate alerts.

The fleet snapshot (:mod:`repro.obs.aggregate`) gives cumulative
per-tenant latency sketches and byte counters; this module turns them
into the sensor the ROADMAP's autoscaling goal consumes: *is tenant T
burning its error budget fast enough that something must react?*

The model is the standard multi-window burn rate.  A latency objective
says "at most ``budget_fraction`` of requests may exceed
``latency_target_s``".  Over a trailing window ``W`` ending now::

    bad_fraction(W) = bad_requests(W) / requests(W)
    burn_rate(W)    = bad_fraction(W) / budget_fraction

``burn_rate == 1`` consumes the budget exactly at the sustainable
pace; a short window at a high threshold pages fast on sharp
regressions, a long window at a low threshold catches slow burns
without flapping.  ``bad_requests`` comes from the merged sketch's
:meth:`~repro.obs.sketch.QuantileSketch.count_above` — bucket-granular,
deterministic, and mergeable across however many workers fed the
snapshot.

Windowed deltas are computed from a per-tenant history of cumulative
scrape samples, so the monitor needs nothing beyond the scrape stream:
feed it via :meth:`SloMonitor.observe` (e.g. as the ``on_scrape``
callback of :func:`~repro.obs.aggregate.scrape_process`).

Alerts are **typed events** (:class:`SloAlert`), deduplicated per
(tenant, kind, window) while the condition persists, counted on the
metrics registry (``slo.alerts``), and — when a tracer is recording —
emitted onto the trace as zero-duration ``slo.alert`` spans on a
dedicated track, so a Perfetto timeline shows exactly when each budget
blew next to the spans that blew it.

Everything is driven by the simulated clock: a seeded overload run
fires the same alerts at the same sim times, every time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

if TYPE_CHECKING:
    from repro.obs.aggregate import FleetSnapshot

__all__ = [
    "SloObjective",
    "BurnWindow",
    "SloAlert",
    "SloMonitor",
    "DEFAULT_WINDOWS",
    "LATENCY_METRIC",
    "GOODPUT_COUNTER",
]

# Metric names the serve layer records into tenant-labeled registries.
LATENCY_METRIC = "serve.latency_s"
GOODPUT_COUNTER = "serve.completed_sim_bytes"


@dataclass(frozen=True)
class SloObjective:
    """One tenant's objectives.

    ``latency_target_s`` + ``budget_fraction`` form the latency SLO
    ("at most ``budget_fraction`` of requests above the target");
    ``goodput_floor_bytes_s`` (optional) alerts when the tenant's
    served bytes per sim second over a window drop below the floor.
    """

    tenant: str
    latency_target_s: float
    budget_fraction: float = 0.01
    goodput_floor_bytes_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.latency_target_s <= 0.0:
            raise ValueError(
                f"latency target {self.latency_target_s} must be positive"
            )
        if not 0.0 < self.budget_fraction < 1.0:
            raise ValueError(
                f"budget fraction {self.budget_fraction} outside (0, 1)"
            )


@dataclass(frozen=True)
class BurnWindow:
    """One evaluation window: trip when burn rate >= ``threshold``."""

    window_s: float
    threshold: float
    severity: str = "page"

    def __post_init__(self) -> None:
        if self.window_s <= 0.0:
            raise ValueError(f"window {self.window_s} must be positive")
        if self.threshold <= 0.0:
            raise ValueError(f"threshold {self.threshold} must be positive")


# Sim-scale defaults (serve experiments run tens of milliseconds of sim
# time): a fast/short page window and a slow/long ticket window.
DEFAULT_WINDOWS: tuple[BurnWindow, ...] = (
    BurnWindow(window_s=5e-3, threshold=10.0, severity="page"),
    BurnWindow(window_s=20e-3, threshold=2.0, severity="ticket"),
)


@dataclass(frozen=True)
class SloAlert:
    """One typed alert event."""

    tenant: str
    kind: str            # "latency_burn" | "goodput_floor"
    severity: str
    window_s: float
    fired_at_s: float    # sim time of the scrape that tripped it
    burn_rate: float     # latency: budget multiple; goodput: floor ratio
    detail: "dict[str, Any]" = field(default_factory=dict)


@dataclass
class _TenantSample:
    """Cumulative per-tenant readings at one scrape."""

    sim_now: float
    requests: int
    bad_requests: int
    bytes_total: float


class SloMonitor:
    """Evaluate objectives against the scrape stream; collect alerts."""

    def __init__(self, objectives: "Iterable[SloObjective]",
                 windows: "Iterable[BurnWindow]" = DEFAULT_WINDOWS) -> None:
        self.objectives = tuple(objectives)
        seen = set()
        for obj in self.objectives:
            if obj.tenant in seen:
                raise ValueError(f"duplicate objective for {obj.tenant!r}")
            seen.add(obj.tenant)
        self.windows = tuple(windows)
        if not self.windows:
            raise ValueError("SloMonitor needs at least one burn window")
        self.alerts: list[SloAlert] = []
        self._history: dict[str, list[_TenantSample]] = {}
        # (tenant, kind, window_s) conditions currently firing — an
        # alert re-arms only after its condition clears.
        self._active: set[tuple[str, str, float]] = set()

    # ------------------------------------------------------------------
    # Scrape intake
    # ------------------------------------------------------------------

    def observe(self, snapshot: "FleetSnapshot") -> list[SloAlert]:
        """Evaluate one fleet snapshot; returns alerts newly fired.

        The snapshot must have been grouped with ``"tenant"`` in its
        ``group_by`` (the per-tenant registries are where the latency
        sketches live).
        """
        if "tenant" not in snapshot.group_by:
            raise ValueError(
                "SloMonitor needs a snapshot grouped by 'tenant' "
                f"(got group_by={snapshot.group_by})"
            )
        tenant_axis = snapshot.group_by.index("tenant")
        fired: list[SloAlert] = []
        for obj in self.objectives:
            sample = self._sample(snapshot, tenant_axis, obj)
            history = self._history.setdefault(obj.tenant, [])
            history.append(sample)
            fired.extend(self._evaluate(obj, history))
        if fired:
            self.alerts.extend(fired)
            self._emit(fired)
        return fired

    def _sample(self, snapshot: "FleetSnapshot", tenant_axis: int,
                obj: SloObjective) -> _TenantSample:
        """Fold every group of ``obj.tenant``: a ``group_by`` that splits
        a tenant (by gateway, say) still sees all of its requests.
        Requests, ``count_above`` and goodput all add exactly."""
        requests = bad = 0
        bytes_total = 0.0
        for key, registry in snapshot.groups.items():
            if key[tenant_axis] != obj.tenant:
                continue
            hist = registry.histograms.get(LATENCY_METRIC)
            if hist is not None:
                requests += hist.count
                bad += hist.sketch.count_above(obj.latency_target_s)
            goodput = registry.counters.get(GOODPUT_COUNTER)
            if goodput is not None:
                bytes_total += goodput.value
        return _TenantSample(snapshot.sim_now, requests, bad, bytes_total)

    # ------------------------------------------------------------------
    # Window evaluation
    # ------------------------------------------------------------------

    @staticmethod
    def _at_or_before(history: "list[_TenantSample]",
                      t: float) -> _TenantSample:
        """Latest cumulative sample with ``sim_now <= t`` (zero origin
        if the window starts before the first scrape)."""
        best = _TenantSample(0.0, 0, 0, 0.0)
        for sample in history:
            if sample.sim_now <= t:
                best = sample
            else:
                break
        return best

    def _evaluate(self, obj: SloObjective,
                  history: "list[_TenantSample]") -> list[SloAlert]:
        now_sample = history[-1]
        now = now_sample.sim_now
        fired: list[SloAlert] = []
        for window in self.windows:
            base = self._at_or_before(history, now - window.window_s)
            requests = now_sample.requests - base.requests
            bad = now_sample.bad_requests - base.bad_requests
            burn = 0.0
            if requests > 0:
                burn = (bad / requests) / obj.budget_fraction
            key = (obj.tenant, "latency_burn", window.window_s)
            if burn >= window.threshold and requests > 0:
                if key not in self._active:
                    self._active.add(key)
                    fired.append(SloAlert(
                        tenant=obj.tenant,
                        kind="latency_burn",
                        severity=window.severity,
                        window_s=window.window_s,
                        fired_at_s=now,
                        burn_rate=burn,
                        detail={
                            "requests": requests,
                            "bad_requests": bad,
                            "latency_target_s": obj.latency_target_s,
                            "budget_fraction": obj.budget_fraction,
                        },
                    ))
            else:
                self._active.discard(key)

            if obj.goodput_floor_bytes_s is not None:
                span_s = now - base.sim_now
                goodput = (
                    (now_sample.bytes_total - base.bytes_total) / span_s
                    if span_s > 0.0 else 0.0
                )
                gkey = (obj.tenant, "goodput_floor", window.window_s)
                if span_s > 0.0 and goodput < obj.goodput_floor_bytes_s:
                    if gkey not in self._active:
                        self._active.add(gkey)
                        fired.append(SloAlert(
                            tenant=obj.tenant,
                            kind="goodput_floor",
                            severity=window.severity,
                            window_s=window.window_s,
                            fired_at_s=now,
                            burn_rate=(
                                goodput / obj.goodput_floor_bytes_s
                            ),
                            detail={
                                "goodput_bytes_s": goodput,
                                "floor_bytes_s": obj.goodput_floor_bytes_s,
                            },
                        ))
                else:
                    self._active.discard(gkey)
        return fired

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def _emit(self, alerts: "list[SloAlert]") -> None:
        metrics = get_metrics()
        tracer = get_tracer()
        for alert in alerts:
            if metrics.recording:
                metrics.inc("slo.alerts")
                metrics.inc(f"slo.alerts.{alert.kind}")
            if tracer.recording:
                track = tracer.track_for(self, "slo")
                with tracer.span(
                    "slo.alert", env=None, track=track,
                    attrs={
                        "cat": "slo",
                        "tenant": alert.tenant,
                        "kind": alert.kind,
                        "severity": alert.severity,
                        "window_s": alert.window_s,
                        "burn_rate": alert.burn_rate,
                        "fired_at_s": alert.fired_at_s,
                    },
                ):
                    pass

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def alerts_for(self, tenant: str) -> "list[SloAlert]":
        return [a for a in self.alerts if a.tenant == tenant]

    def as_records(self) -> "list[dict[str, Any]]":
        """JSON-ready alert dump (deterministic order of firing)."""
        return [
            {
                "type": "slo_alert",
                "tenant": a.tenant,
                "kind": a.kind,
                "severity": a.severity,
                "window_s": a.window_s,
                "fired_at_s": a.fired_at_s,
                "burn_rate": a.burn_rate,
                "detail": dict(a.detail),
            }
            for a in self.alerts
        ]
