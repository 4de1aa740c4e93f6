"""SLO monitor: burn-rate windows, dedupe/re-arm, typed emission."""

import pytest

from repro.obs import (
    BurnWindow,
    FleetAggregator,
    MetricsRegistry,
    SloMonitor,
    SloObjective,
    collecting,
    tracing,
)
from repro.obs.slo import GOODPUT_COUNTER, LATENCY_METRIC


class Fleet:
    """One tenant-labeled registry feeding delta-aware scrapes."""

    def __init__(self, tenants=("hot",)):
        self.aggregator = FleetAggregator()
        self.registries = {
            tenant: self.aggregator.register(
                MetricsRegistry(labels={"tenant": tenant})
            )
            for tenant in tenants
        }

    def observe(self, tenant, latencies, sim_bytes=0.0):
        registry = self.registries[tenant]
        for latency in latencies:
            registry.observe(LATENCY_METRIC, latency)
        if sim_bytes:
            registry.inc(GOODPUT_COUNTER, sim_bytes)

    def scrape(self, now_s):
        return self.aggregator.scrape(now_s, group_by=("tenant",))


WINDOW = BurnWindow(window_s=5e-3, threshold=10.0, severity="page")


class TestValidation:
    def test_requires_tenant_group_by(self):
        monitor = SloMonitor([SloObjective("hot", 1e-3)])
        aggregator = FleetAggregator()
        snapshot = aggregator.scrape(0.0)  # no group_by
        with pytest.raises(ValueError, match="tenant"):
            monitor.observe(snapshot)

    def test_duplicate_objectives_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SloMonitor([SloObjective("hot", 1e-3),
                        SloObjective("hot", 2e-3)])

    def test_needs_at_least_one_window(self):
        with pytest.raises(ValueError, match="window"):
            SloMonitor([SloObjective("hot", 1e-3)], windows=())

    @pytest.mark.parametrize("kwargs", [
        {"latency_target_s": 0.0},
        {"budget_fraction": 0.0},
        {"budget_fraction": 1.0},
    ])
    def test_objective_parameter_domains(self, kwargs):
        params = {"latency_target_s": 1e-3}
        params.update(kwargs)
        with pytest.raises(ValueError):
            SloObjective("hot", **params)

    @pytest.mark.parametrize("kwargs", [
        {"window_s": 0.0}, {"threshold": 0.0},
    ])
    def test_window_parameter_domains(self, kwargs):
        params = {"window_s": 1e-3, "threshold": 1.0}
        params.update(kwargs)
        with pytest.raises(ValueError):
            BurnWindow(**params)


class TestLatencyBurn:
    def test_fires_when_budget_burns_hot(self):
        fleet = Fleet()
        monitor = SloMonitor([SloObjective("hot", 1e-3, budget_fraction=0.01)],
                             windows=[WINDOW])
        # All 20 requests blow the 1 ms target: burn = 1.0/0.01 = 100x.
        fleet.observe("hot", [5e-3] * 20)
        fired = monitor.observe(fleet.scrape(1e-3))
        assert len(fired) == 1
        alert = fired[0]
        assert alert.tenant == "hot"
        assert alert.kind == "latency_burn"
        assert alert.severity == "page"
        assert alert.fired_at_s == 1e-3
        assert alert.burn_rate == pytest.approx(100.0)
        assert alert.detail["requests"] == 20
        assert alert.detail["bad_requests"] == 20

    def test_quiet_tenant_never_fires(self):
        fleet = Fleet()
        monitor = SloMonitor([SloObjective("hot", 1e-3, budget_fraction=0.01)],
                             windows=[WINDOW])
        fleet.observe("hot", [1e-5] * 50)  # all well under target
        assert monitor.observe(fleet.scrape(1e-3)) == []
        assert monitor.alerts == []

    def test_dedupe_while_condition_persists_then_rearm(self):
        fleet = Fleet()
        monitor = SloMonitor([SloObjective("hot", 1e-3, budget_fraction=0.01)],
                             windows=[WINDOW])
        fleet.observe("hot", [5e-3] * 10)
        assert len(monitor.observe(fleet.scrape(1e-3))) == 1
        # Still burning at the next scrape: no duplicate alert.
        fleet.observe("hot", [5e-3] * 10)
        assert monitor.observe(fleet.scrape(2e-3)) == []
        # Recovery: a full window of fast requests clears the condition
        # (the trailing window no longer contains the bad burst).
        fleet.observe("hot", [1e-5] * 500)
        assert monitor.observe(fleet.scrape(9e-3)) == []
        # Regression again: the alert re-arms and fires a second time.
        fleet.observe("hot", [5e-3] * 500)
        assert len(monitor.observe(fleet.scrape(15e-3))) == 1
        assert len(monitor.alerts) == 2

    def test_windowed_not_lifetime(self):
        """Old badness outside the trailing window must not count."""
        fleet = Fleet()
        monitor = SloMonitor([SloObjective("hot", 1e-3, budget_fraction=0.01)],
                             windows=[WINDOW])
        fleet.observe("hot", [5e-3] * 100)   # ancient burst
        monitor.observe(fleet.scrape(1e-3))  # fires here
        fleet.observe("hot", [1e-5] * 10_000)
        fired = monitor.observe(fleet.scrape(20e-3))
        assert fired == []  # window [15ms, 20ms] saw only fast requests

    def test_multi_window_severities(self):
        fleet = Fleet()
        monitor = SloMonitor(
            [SloObjective("hot", 1e-3, budget_fraction=0.01)],
            windows=[BurnWindow(5e-3, 10.0, "page"),
                     BurnWindow(20e-3, 2.0, "ticket")],
        )
        fleet.observe("hot", [5e-3] * 50)
        fired = monitor.observe(fleet.scrape(1e-3))
        assert {a.severity for a in fired} == {"page", "ticket"}
        assert all(a.kind == "latency_burn" for a in fired)

    def test_unknown_tenant_counts_as_zero_traffic(self):
        fleet = Fleet(tenants=("other",))
        monitor = SloMonitor([SloObjective("hot", 1e-3)], windows=[WINDOW])
        fleet.observe("other", [5e-3] * 10)
        assert monitor.observe(fleet.scrape(1e-3)) == []


class TestSplitTenant:
    """A ``group_by`` that splits a tenant across groups (here by
    gateway) folds every group: the monitor sees what one group per
    tenant would show."""

    def fleet(self):
        aggregator = FleetAggregator()
        gateways = [
            aggregator.register(MetricsRegistry(
                labels={"tenant": "hot", "gateway": f"gw{i}"}))
            for i in range(2)
        ]
        for latency, registry in zip((1e-5, 5e-3), gateways):
            for _ in range(10):
                registry.observe(LATENCY_METRIC, latency)
            registry.inc(GOODPUT_COUNTER, 50.0)
        return aggregator

    def test_two_gateways_fold_into_one_tenant(self):
        objective = SloObjective("hot", 1e-3, budget_fraction=0.01,
                                 goodput_floor_bytes_s=1e6)
        split, whole = (SloMonitor([objective], windows=[WINDOW])
                        for _ in range(2))
        snapshot = self.fleet().scrape(1e-3, group_by=("tenant", "gateway"))
        assert len(snapshot.groups) == 2
        fired = split.observe(snapshot)
        burn = next(a for a in fired if a.kind == "latency_burn")
        assert burn.detail["requests"] == 20
        assert burn.detail["bad_requests"] == 10
        assert burn.burn_rate == pytest.approx(50.0)
        floor = next(a for a in fired if a.kind == "goodput_floor")
        assert floor.detail["goodput_bytes_s"] == pytest.approx(100.0 / 1e-3)
        assert fired == whole.observe(
            self.fleet().scrape(1e-3, group_by=("tenant",)))


class TestGoodputFloor:
    def objective(self):
        return SloObjective("cold", 1e-3, budget_fraction=0.05,
                            goodput_floor_bytes_s=1e6)

    def test_fires_below_floor(self):
        fleet = Fleet(tenants=("cold",))
        monitor = SloMonitor([self.objective()], windows=[WINDOW])
        # 100 bytes over 1 ms = 1e5 B/s, under the 1e6 floor.
        fleet.observe("cold", [1e-5], sim_bytes=100.0)
        fired = monitor.observe(fleet.scrape(1e-3))
        kinds = {a.kind for a in fired}
        assert "goodput_floor" in kinds
        alert = next(a for a in fired if a.kind == "goodput_floor")
        assert alert.burn_rate == pytest.approx(1e5 / 1e6)
        assert alert.detail["floor_bytes_s"] == 1e6

    def test_holds_above_floor(self):
        fleet = Fleet(tenants=("cold",))
        monitor = SloMonitor([self.objective()], windows=[WINDOW])
        fleet.observe("cold", [1e-5], sim_bytes=10_000.0)  # 1e7 B/s
        fired = monitor.observe(fleet.scrape(1e-3))
        assert all(a.kind != "goodput_floor" for a in fired)


class TestEmission:
    def test_alerts_counted_and_traced(self):
        fleet = Fleet()
        monitor = SloMonitor([SloObjective("hot", 1e-3, budget_fraction=0.01)],
                             windows=[WINDOW])
        fleet.observe("hot", [5e-3] * 10)
        with collecting() as metrics, tracing() as tracer:
            monitor.observe(fleet.scrape(1e-3))
        assert metrics.counters["slo.alerts"].value == 1.0
        assert metrics.counters["slo.alerts.latency_burn"].value == 1.0
        spans = [s for s in tracer.spans if s.name == "slo.alert"]
        assert len(spans) == 1
        assert spans[0].attrs["tenant"] == "hot"
        assert spans[0].attrs["severity"] == "page"

    def test_silent_when_nothing_installed(self):
        fleet = Fleet()
        monitor = SloMonitor([SloObjective("hot", 1e-3, budget_fraction=0.01)],
                             windows=[WINDOW])
        fleet.observe("hot", [5e-3] * 10)
        fired = monitor.observe(fleet.scrape(1e-3))  # no metrics/tracer
        assert len(fired) == 1


class TestViews:
    def test_alerts_for_and_records(self):
        import json

        fleet = Fleet(tenants=("hot", "cold"))
        monitor = SloMonitor(
            [SloObjective("hot", 1e-3, budget_fraction=0.01),
             SloObjective("cold", 1e-3, budget_fraction=0.01)],
            windows=[WINDOW],
        )
        fleet.observe("hot", [5e-3] * 10)
        fleet.observe("cold", [1e-5] * 10)
        monitor.observe(fleet.scrape(1e-3))
        assert len(monitor.alerts_for("hot")) == 1
        assert monitor.alerts_for("cold") == []
        records = monitor.as_records()
        assert len(records) == 1
        assert records[0]["type"] == "slo_alert"
        assert records[0]["tenant"] == "hot"
        json.dumps(records)
