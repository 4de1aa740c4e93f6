"""Whole-worker death at the single-gateway layer: the admission
slot-leak regression, failover of in-flight batches, and router
liveness/cloning."""

from __future__ import annotations

import pytest

from repro.dpu import make_device
from repro.dpu.specs import Direction
from repro.errors import NoCapableWorkerError
from repro.serve import BatchPolicy, ServeConfig, ServeGateway, ServeRequest
from repro.serve.router import RoundRobinRouter

PAYLOAD = b"death-payload " * 64


def _requests(n: int):
    return [
        ServeRequest(Direction.COMPRESS, PAYLOAD, sim_bytes=64e3, req_id=i)
        for i in range(n)
    ]


def _gateway(env, n_workers=2, **kwargs):
    devices = [
        make_device(env, "bf2", name=f"bf2-{i}") for i in range(n_workers)
    ]
    config = ServeConfig(batch=BatchPolicy(max_msgs=4), **kwargs)
    return ServeGateway(env, devices, config)


def _kill_dispatched_worker(env, gateway, at_s=1e-6):
    """Kill whichever worker the first batch was dispatched to."""

    def killer(env):
        yield env.timeout(at_s)
        dispatched = [rec for rec in gateway.routing_log
                      if rec[1] == "dispatch"]
        gateway.kill_worker(dispatched[0][2])

    env.process(killer(env))


def _drain(env, gateway):
    def driver(env):
        yield env.timeout(0.0)
        yield from gateway.drain()

    env.run(until=env.process(driver(env)))


def test_failover_with_no_survivor_fails_tickets_and_drains(env):
    """The slot-leak regression's sharp edge: the batch fails *after*
    admission (worker died, nobody left to re-dispatch to) and every
    slot still releases exactly once."""
    gateway = _gateway(env, n_workers=1, max_pending=8)
    tickets = [gateway.submit(r) for r in _requests(4)]
    assert gateway.admission.pending == 4
    _kill_dispatched_worker(env, gateway)
    _drain(env, gateway)

    for ticket in tickets:
        assert ticket.event.triggered and not ticket.event.ok
        with pytest.raises(NoCapableWorkerError):
            ticket.event.value
    assert gateway.admission.pending == 0
    assert gateway.completed == 0
    # The budget is intact; the fleet is dead, so new submits are
    # admitted then failed at dispatch — and still release their slots.
    more = [gateway.submit(r) for r in _requests(4)]
    assert all(not t.shed for t in more)
    _drain(env, gateway)
    assert gateway.admission.pending == 0


def test_worker_death_with_failover_redispatches_in_flight(env):
    gateway = _gateway(env, n_workers=2, max_pending=8)
    tickets = [gateway.submit(r) for r in _requests(4)]
    _kill_dispatched_worker(env, gateway)
    _drain(env, gateway)

    assert all(t.event.ok for t in tickets)
    assert gateway.completed == 4
    assert gateway.admission.pending == 0
    kinds = [rec[1] for rec in gateway.routing_log]
    assert kinds.count("failover") >= 1
    # The re-pick landed on the survivor.
    survivor = next(w for w in gateway.workers if w.alive)
    responses = [t.event.value for t in tickets]
    assert {r.device for r in responses} == {survivor.name}


def test_dead_fleet_fails_tickets_with_typed_error(env):
    """No survivors: submit-side dispatch raises the typed
    NoCapableWorkerError (never a bare IndexError) and the tickets fail
    with it, slots released."""
    gateway = _gateway(env, n_workers=2, max_pending=8)
    for worker in list(gateway.workers):
        gateway.kill_worker(worker.name)
    tickets = [gateway.submit(r) for r in _requests(4)]
    assert all(not t.shed for t in tickets)  # admission is not the router
    _drain(env, gateway)
    for ticket in tickets:
        with pytest.raises(NoCapableWorkerError):
            ticket.event.value
    assert gateway.admission.pending == 0


def test_kill_worker_is_idempotent_and_checks_names(env):
    gateway = _gateway(env, n_workers=2)
    worker = gateway.kill_worker("bf2-0")
    assert not worker.alive
    assert gateway.kill_worker("bf2-0") is worker  # second kill: no-op
    with pytest.raises(ValueError):
        gateway.kill_worker("nope")


def test_routers_skip_dead_workers(env):
    gateway = _gateway(env, n_workers=2)
    gateway.kill_worker("bf2-0")
    tickets = [gateway.submit(r) for r in _requests(4)]
    _drain(env, gateway)
    assert all(t.event.ok for t in tickets)
    assert {t.event.value.device for t in tickets} == {"bf2-1"}


def test_shared_router_instance_is_cloned_per_gateway(env):
    """Two gateways handed the *same* RoundRobinRouter object must not
    alias one cursor: each clones it and starts from worker 0."""
    shared = RoundRobinRouter()
    gw_a = _gateway(env, n_workers=2, router=shared)
    gw_b = _gateway(env, n_workers=2, router=shared)
    assert gw_a.router is not shared
    assert gw_b.router is not shared
    assert gw_a.router is not gw_b.router

    tickets_a = [gw_a.submit(r) for r in _requests(4)]
    tickets_b = [gw_b.submit(r) for r in _requests(4)]

    def driver(env):
        yield env.timeout(0.0)
        yield from gw_a.drain()
        yield from gw_b.drain()

    env.run(until=env.process(driver(env)))
    # Un-aliased cursors: each gateway's first batch went to *its*
    # first worker (an aliased cursor would advance b onto worker 1).
    assert tickets_a[0].event.value.device == gw_a.workers[0].name
    assert tickets_b[0].event.value.device == gw_b.workers[0].name
    # The shared instance's own cursor never moved.
    assert shared._next == 0


def test_round_robin_raises_typed_error_on_dead_fleet(env):
    router = RoundRobinRouter()
    gateway = _gateway(env, n_workers=2)
    for worker in gateway.workers:
        worker.kill()

    class _Batch:
        direction = Direction.COMPRESS
        algo = None

    with pytest.raises(NoCapableWorkerError) as excinfo:
        router.pick(gateway.workers, _Batch())
    assert excinfo.value.direction == Direction.COMPRESS


def test_death_race_subscriptions_stay_bounded_by_in_flight_batches(env):
    """Every batch registers its job's completion in ``worker.running``
    so a kill can fail it, and takes it out again when the job ends: on
    a worker that lives all run long, the registry is never longer than
    the batches in flight on it, and is empty once they drain."""
    gateway = _gateway(env, n_workers=2, max_pending=32)
    peaks = {w.name: 0 for w in gateway.workers}
    over = []  # (time, worker, registered, in flight) past the bound

    def in_flight(worker):
        placed = sum(1 for _batch, _kind, name in gateway.routing_log
                     if name == worker.name)
        return placed - worker.batches_served

    def sampler(env):
        while True:
            yield env.timeout(1e-4)
            for worker in gateway.workers:
                registered = len(worker.running)
                if registered > in_flight(worker):
                    over.append((env.now, worker.name, registered,
                                 in_flight(worker)))
                peaks[worker.name] = max(peaks[worker.name], registered)

    def driver(env):
        for request in _requests(400):
            gateway.submit(request)
            yield env.timeout(2e-5)
        yield from gateway.drain()

    env.process(sampler(env))
    env.run(until=env.process(driver(env)))
    assert over == []
    assert sum(w.batches_served for w in gateway.workers) >= 40
    assert max(peaks.values()) >= 2  # several jobs in flight at once
    for worker in gateway.workers:
        assert worker.running == {}


@pytest.mark.parametrize("submitted", [False, True],
                         ids=["before-submit", "after-submit"])
def test_kill_at_the_dispatch_instant_still_fails_over(env, submitted):
    """A kill at the very sim instant its worker is picked: before the
    batch process has submitted the job (the batch must not submit to
    the dead worker) or just after (the fresh job must fail)."""
    gateway = _gateway(env, n_workers=2, max_pending=8)
    victim = []

    def driver(env):
        tickets = [gateway.submit(r) for r in _requests(4)]  # one full batch
        (_batch, kind, name), = gateway.routing_log
        assert kind == "dispatch"
        if submitted:
            yield env.timeout(0.0)  # the batch process boots first
            assert gateway.workers[0].running or gateway.workers[1].running
        victim.append(gateway.kill_worker(name))
        assert env.now == 0.0
        yield from gateway.drain()
        return tickets

    tickets = env.run(until=env.process(driver(env)))
    assert all(t.event.ok for t in tickets)
    assert [rec[1] for rec in gateway.routing_log] == ["dispatch", "failover"]
    survivor = next(w for w in gateway.workers if w is not victim[0])
    assert {t.event.value.device for t in tickets} == {survivor.name}
    assert victim[0].batches_served == 0
    assert gateway.admission.pending == 0
