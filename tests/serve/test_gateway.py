"""End-to-end gateway behavior: identity, accounting, drain, failure."""

from __future__ import annotations

import pytest

from repro.dpu import make_device
from repro.dpu.specs import Direction
from repro.serve import BatchPolicy, ServeConfig, ServeGateway, ServeRequest
from repro.sim import Environment


def _serve_all(env, gateway, requests, spacing=1e-5):
    """Submit a trace with fixed spacing, drain, return {req_id: resp}."""
    responses = {}

    def client(env):
        tickets = []
        for request in requests:
            tickets.append(gateway.submit(request))
            yield env.timeout(spacing)
        yield from gateway.drain()
        for ticket in tickets:
            if ticket.accepted:
                response = ticket.event.value
                responses[response.req_id] = response

    env.run(until=env.process(client(env)))
    return responses


def _run_config(requests, fleet_kinds, batch_msgs, router):
    env = Environment()
    devices = [make_device(env, kind) for kind in fleet_kinds]
    gateway = ServeGateway(
        env,
        devices,
        ServeConfig(
            batch=BatchPolicy(max_msgs=batch_msgs),
            router=router,
            max_pending=10_000,
        ),
    )
    return _serve_all(env, gateway, requests), gateway, env


class TestByteIdentity:
    """Acceptance: batched output is byte-identical to per-request
    output, whatever the fleet, router, or batch shape."""

    def test_batched_equals_unbatched(self, make_requests):
        requests = make_requests(24)
        unbatched, _, _ = _run_config(requests, ("bf2", "bf3"), 1,
                                      "least_queue_depth")
        batched, _, _ = _run_config(requests, ("bf2", "bf3"), 8,
                                    "least_queue_depth")
        assert set(unbatched) == set(batched) == {r.req_id for r in requests}
        for req_id in unbatched:
            assert unbatched[req_id].payload == batched[req_id].payload

    @pytest.mark.parametrize("router", ["round_robin", "least_queue_depth",
                                        "capability"])
    @pytest.mark.parametrize("fleet", [("bf2",), ("bf3", "bf3"),
                                       ("bf2", "bf2", "bf3")])
    def test_identity_across_routers_and_fleets(self, make_requests, router,
                                                fleet):
        requests = make_requests(12)
        reference, _, _ = _run_config(requests, ("bf2",), 1, "round_robin")
        got, _, _ = _run_config(requests, fleet, 4, router)
        for req_id in reference:
            assert got[req_id].payload == reference[req_id].payload

    def test_identity_under_engine_faults(self, make_requests):
        from repro.faults import FaultPlan, set_fault_plan

        requests = make_requests(12)
        reference, _, _ = _run_config(requests, ("bf2", "bf3"), 4,
                                      "capability")
        set_fault_plan(FaultPlan(seed=11, engine_fail=0.5))
        try:
            faulty, _, _ = _run_config(requests, ("bf2", "bf3"), 4,
                                       "capability")
        finally:
            from repro.faults import NULL_PLAN
            set_fault_plan(NULL_PLAN)
        for req_id in reference:
            assert faulty[req_id].payload == reference[req_id].payload

    def test_roundtrip_through_gateway(self, env, fleet, make_requests):
        """Compress responses decompress back to the original bytes."""
        from repro.algorithms.deflate import deflate_decompress

        requests = [r for r in make_requests(9)
                    if r.direction is Direction.COMPRESS]
        gateway = ServeGateway(env, fleet)
        responses = _serve_all(env, gateway, requests)
        for request in requests:
            assert deflate_decompress(
                responses[request.req_id].payload
            ) == request.payload


class TestAccounting:
    def test_latency_and_completion_counters(self, env, fleet, make_requests):
        requests = make_requests(12)
        gateway = ServeGateway(env, fleet)
        responses = _serve_all(env, gateway, requests)
        assert gateway.completed == len(requests)
        assert gateway.submitted == len(requests)
        assert len(gateway.latencies) == len(requests)
        for response in responses.values():
            assert response.completed_s >= response.accepted_s
            assert response.latency_s > 0
        assert gateway.completed_sim_bytes == pytest.approx(
            sum(r.sim_bytes for r in requests)
        )

    def test_batch_metadata_on_responses(self, env, fleet, make_requests):
        requests = [r for r in make_requests(8)
                    if r.direction is Direction.COMPRESS]
        gateway = ServeGateway(
            env, fleet,
            ServeConfig(batch=BatchPolicy(max_msgs=len(requests))),
        )
        responses = _serve_all(env, gateway, requests, spacing=1e-7)
        batch_ids = {r.batch_id for r in responses.values()}
        assert len(batch_ids) == 1  # all coalesced into one batch
        assert all(r.batch_size == len(requests) for r in responses.values())
        assert all(r.device for r in responses.values())
        assert all(r.engine in ("cengine", "soc") for r in responses.values())

    def test_worker_counters(self, env, fleet, make_requests):
        gateway = ServeGateway(env, fleet)
        _serve_all(env, gateway, make_requests(12))
        assert sum(w.requests_served for w in gateway.workers) == 12
        assert sum(w.batches_served for w in gateway.workers) == (
            gateway.batcher.batches_flushed
        )

    def test_auto_request_ids(self, env, fleet):
        gateway = ServeGateway(env, fleet)
        requests = [ServeRequest(Direction.COMPRESS, b"x" * 256)
                    for _ in range(4)]
        responses = _serve_all(env, gateway, requests)
        assert set(responses) == {0, 1, 2, 3}

    def test_percentile_validation(self, env, fleet, make_requests):
        gateway = ServeGateway(env, fleet)
        with pytest.raises(ValueError):
            gateway.latency_percentile(99)  # nothing completed yet
        _serve_all(env, gateway, make_requests(6))
        assert gateway.latency_percentile(0) <= gateway.latency_percentile(100)
        with pytest.raises(ValueError):
            gateway.latency_percentile(101)

    def test_percentile_on_empty_gateway_is_typed(self, env, fleet):
        """Zero completed requests raises the dedicated error — which
        stays a ValueError subclass for older callers — instead of a
        bare statistics crash."""
        from repro.errors import NoLatencySamplesError, ServeError

        gateway = ServeGateway(env, fleet)
        with pytest.raises(NoLatencySamplesError) as excinfo:
            gateway.latency_percentile(50)
        assert isinstance(excinfo.value, ServeError)
        assert isinstance(excinfo.value, ValueError)

    def test_serve_bench_tolerates_zero_load(self):
        """At a vanishing offered load the bench point reports nan
        percentiles rather than crashing — with an explicit
        ``sample_count`` of 0 so the nan is typed, not mysterious."""
        import math

        from repro.bench.experiments.serve_gateway import run_serve_point

        row = run_serve_point(
            offered_req_s=1.0, batch_msgs=1, duration_s=1e-4,
            fleet=("bf2",),
        )
        assert row["offered"] == 0
        assert row["completed"] == 0
        assert row["sample_count"] == 0
        assert math.isnan(row["p50_s"])
        assert math.isnan(row["p99_s"])

    def test_serve_bench_row_carries_sample_count(self):
        from repro.bench.experiments.serve_gateway import run_serve_point

        row = run_serve_point(
            offered_req_s=5_000.0, batch_msgs=4, duration_s=2e-3,
            fleet=("bf2",),
        )
        assert isinstance(row["sample_count"], int)
        assert row["sample_count"] == row["completed"] > 0
        assert row["p99_s"] >= row["p50_s"] > 0.0


class TestTelemetry:
    """PR 6: sketch-backed percentiles + labeled tenant registries."""

    def _telemetry_run(self, make_requests, aggregator=None, tenants=None):
        from repro.serve import TelemetryConfig

        env = Environment()
        devices = [make_device(env, kind) for kind in ("bf2", "bf3")]
        gateway = ServeGateway(
            env,
            devices,
            ServeConfig(
                batch=BatchPolicy(max_msgs=4),
                telemetry=TelemetryConfig(
                    gateway="gw-test",
                    aggregator=aggregator,
                ),
            ),
        )
        requests = make_requests(12)
        if tenants:
            import dataclasses

            requests = [
                dataclasses.replace(r, tenant=tenants[i % len(tenants)])
                for i, r in enumerate(requests)
            ]
        _serve_all(env, gateway, requests)
        return gateway

    def test_percentile_within_sketch_bound_of_exact(self, env, fleet,
                                                     make_requests):
        import math

        gateway = ServeGateway(env, fleet)
        _serve_all(env, gateway, make_requests(24))
        ordered = sorted(gateway.latencies)
        for q in (50, 90, 99, 100):
            rank = max(1, math.ceil(len(ordered) * q / 100))
            exact = ordered[rank - 1]
            got = gateway.latency_percentile(q)
            assert abs(got - exact) <= gateway.latency_sketch.alpha * exact

    def test_sample_count_tracks_completions(self, env, fleet, make_requests):
        gateway = ServeGateway(env, fleet)
        assert gateway.sample_count == 0
        _serve_all(env, gateway, make_requests(6))
        assert gateway.sample_count == 6 == gateway.completed

    def test_worker_and_tenant_registries_labeled(self, make_requests):
        gateway = self._telemetry_run(make_requests, tenants=("hot", "cold"))
        label_sets = [r.label_dict for r in gateway.registries]
        worker_labels = [l for l in label_sets if "tenant" not in l]
        tenant_labels = [l for l in label_sets if "tenant" in l]
        assert len(worker_labels) == 2  # one per fleet device
        assert all(l["gateway"] == "gw-test" for l in label_sets)
        assert {l["tenant"] for l in tenant_labels} == {"hot", "cold"}
        assert all("worker" in l for l in label_sets)

    def test_tenant_registries_carry_slo_inputs(self, make_requests):
        from repro.obs.slo import GOODPUT_COUNTER, LATENCY_METRIC

        gateway = self._telemetry_run(make_requests, tenants=("hot",))
        tenant_registries = [
            r for r in gateway.registries if "tenant" in r.label_dict
        ]
        assert tenant_registries
        total = 0
        for registry in tenant_registries:
            hist = registry.histograms[LATENCY_METRIC]
            total += hist.count
            assert registry.counters[GOODPUT_COUNTER].value > 0
        assert total == gateway.completed

    def test_untenanted_requests_use_default_tenant(self, make_requests):
        gateway = self._telemetry_run(make_requests)  # no tenant set
        tenants = {
            r.label_dict["tenant"]
            for r in gateway.registries if "tenant" in r.label_dict
        }
        assert tenants == {"default"}

    def test_registries_auto_register_with_aggregator(self, make_requests):
        from repro.obs import FleetAggregator

        aggregator = FleetAggregator()
        gateway = self._telemetry_run(make_requests, aggregator=aggregator)
        assert set(aggregator.members) >= set(gateway.registries)
        snapshot = aggregator.scrape(0.0, group_by=("tenant",))
        assert snapshot.group("default") is not None

    def test_telemetry_off_means_no_registries(self, env, fleet,
                                               make_requests):
        gateway = ServeGateway(env, fleet)
        _serve_all(env, gateway, make_requests(6))
        assert gateway.registries == ()

    def test_telemetry_is_sim_neutral(self, make_requests):
        """Acceptance: telemetry on/off produces bit-identical sim
        results — same finish time, same latency stream, same bytes."""

        def run(telemetry_on):
            from repro.serve import TelemetryConfig

            env = Environment()
            devices = [make_device(env, kind) for kind in ("bf2", "bf3")]
            gateway = ServeGateway(
                env,
                devices,
                ServeConfig(
                    batch=BatchPolicy(max_msgs=4),
                    telemetry=TelemetryConfig() if telemetry_on else None,
                ),
            )
            responses = _serve_all(env, gateway, make_requests(12))
            payloads = tuple(
                responses[req_id].payload for req_id in sorted(responses)
            )
            return env.now, tuple(gateway.latencies), payloads

        assert run(False) == run(True)


class TestDrain:
    def test_drain_flushes_partial_batches(self, env, fleet):
        gateway = ServeGateway(
            env, fleet,
            ServeConfig(batch=BatchPolicy(max_msgs=64)),
        )

        def client(env):
            ticket = gateway.submit(
                ServeRequest(Direction.COMPRESS, b"y" * 512, req_id="only")
            )
            drained = env.process(gateway.drain())
            yield env.timeout(0)
            # Flushed by the drain at t=0, not by the batch deadline.
            assert gateway.batcher.open_count == 0
            yield drained
            assert ticket.done

        env.run(until=env.process(client(env)))
        assert gateway.completed == 1

    def test_gateway_reusable_after_drain(self, env, fleet, make_requests):
        gateway = ServeGateway(env, fleet)
        _serve_all(env, gateway, make_requests(6))
        _serve_all(env, gateway, make_requests(6))
        assert gateway.completed == 12

    def test_drain_with_nothing_pending(self, env, fleet, run_sim):
        gateway = ServeGateway(env, fleet)
        run_sim(env, gateway.drain())
        assert gateway.completed == 0


class TestFailurePropagation:
    def test_mismatched_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError, match="different Environment"):
            ServeGateway(env, [make_device(other, "bf2")])

    def test_empty_fleet_rejected(self, env):
        with pytest.raises(ValueError, match="at least one device"):
            ServeGateway(env, [])


class TestBatchingSpeedsUpSmallMessages:
    def test_batched_makespan_beats_unbatched(self, make_requests):
        requests = make_requests(32)
        _, _, env_unbatched = _run_config(
            requests, ("bf2", "bf2"), 1, "capability"
        )
        _, _, env_batched = _run_config(
            requests, ("bf2", "bf2"), 8, "capability"
        )
        assert env_batched.now < env_unbatched.now
