"""AnyOf: the first-of-N race event the failover machinery runs on."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import AnyOf, Environment
from tests.conftest import drive


def test_any_of_fires_on_first_event():
    env = Environment()
    slow = env.timeout(2.0, value="slow")
    fast = env.timeout(1.0, value="fast")

    def proc(env):
        winner, value = yield env.any_of([slow, fast])
        return winner, value, env.now

    winner, value, now = drive(env, proc(env))
    assert winner is fast
    assert value == "fast"
    assert now == 1.0


def test_any_of_value_names_the_winner_among_ties():
    """Simultaneous events: heap sequence order decides, deterministically
    — the first-scheduled event wins."""
    env = Environment()
    first = env.timeout(1.0, value="first")
    second = env.timeout(1.0, value="second")

    def proc(env):
        winner, value = yield env.any_of([second, first])
        return value

    assert drive(env, proc(env)) == "first"


def test_any_of_with_already_fired_event_wins_at_construction():
    env = Environment()
    done = env.event()
    done.succeed("already")

    def proc(env):
        yield env.timeout(0.5)  # let `done` process first
        winner, value = yield env.any_of([env.timeout(9.0), done])
        return winner is done, value, env.now

    was_done, value, now = drive(env, proc(env))
    assert was_done and value == "already"
    assert now == 0.5


def test_any_of_failing_child_fails_the_race():
    env = Environment()
    boom = env.event()

    def failer(env):
        yield env.timeout(1.0)
        boom.fail(RuntimeError("dpu fell off the bus"))

    def proc(env):
        yield env.any_of([env.timeout(5.0), boom])

    env.process(failer(env))
    with pytest.raises(RuntimeError, match="fell off the bus"):
        drive(env, proc(env))


def test_any_of_late_losers_are_ignored():
    env = Environment()
    results = []

    def proc(env):
        fast = env.timeout(1.0, value="fast")
        slow = env.timeout(2.0, value="slow")
        winner, value = yield env.any_of([fast, slow])
        results.append(value)
        # Keep running past the loser's fire time: nothing blows up and
        # the loser still fired (side effects happen in the background).
        yield env.timeout(5.0)
        return slow.processed

    assert drive(env, proc(env)) is True
    assert results == ["fast"]


def test_any_of_requires_events():
    env = Environment()
    with pytest.raises(SimulationError):
        AnyOf(env, [])
    with pytest.raises(SimulationError):
        env.any_of([])


def test_decided_race_detaches_from_its_losers():
    """A long-lived loser (a worker's death event) must not keep one
    stale callback — and the race behind it — per race it lost."""
    env = Environment()
    never = env.event()
    for i in range(50):
        race = env.any_of([env.timeout(1.0, value=i), never])
        env.run(until=race)
    assert never.callbacks == []


def test_race_decided_at_construction_detaches_earlier_children():
    env = Environment()
    pending = env.event()
    done = env.event()
    done.succeed("already")
    env.run()
    race = env.any_of([pending, done, env.event()])
    assert race.triggered
    assert pending.callbacks == []


def test_failed_race_detaches_from_its_losers():
    env = Environment()
    never = env.event()
    boom = env.event()
    race = env.any_of([never, boom])
    boom.fail(RuntimeError("gone"))
    with pytest.raises(RuntimeError):
        env.run(until=race)
    assert never.callbacks == []


def test_detaching_leaves_other_waiters_subscribed():
    env = Environment()
    shared = env.event()
    heard = []
    shared.callbacks.append(lambda ev: heard.append(ev.value))
    first = env.any_of([env.timeout(1.0), shared])
    second = env.any_of([shared, env.timeout(5.0)])
    env.run(until=first)
    shared.succeed("late")
    assert env.run(until=second) == (shared, "late")
    assert heard == ["late"]


def test_failed_all_of_detaches_from_its_pending_children():
    """An AllOf that a failing child decides is the same leak shape: its
    still-pending children must not keep its callback."""
    env = Environment()
    never = env.event()
    for i in range(50):
        boom = env.event()
        barrier = env.all_of([never, boom])
        boom.fail(RuntimeError(f"job {i} failed"))
        with pytest.raises(RuntimeError):
            env.run(until=barrier)
    assert never.callbacks == []
