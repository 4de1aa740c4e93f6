"""DES kernel semantics."""

import pytest

from repro.errors import SimDeadlockError, SimulationError
from repro.sim import Environment


class TestTimeouts:
    def test_clock_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_timeout_advances_clock(self, env):
        def proc(env):
            yield env.timeout(2.5)
            return env.now

        assert env.run(until=env.process(proc(env))) == 2.5

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_value_passthrough(self, env):
        def proc(env):
            value = yield env.timeout(1, value="tick")
            return value

        assert env.run(until=env.process(proc(env))) == "tick"

    def test_simultaneous_events_fire_in_schedule_order(self, env):
        order = []

        def proc(env, tag):
            yield env.timeout(1)
            order.append(tag)

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.process(proc(env, "c"))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcesses:
    def test_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return 42

        assert env.run(until=env.process(proc(env))) == 42

    def test_nested_yield_from(self, env):
        def inner(env):
            yield env.timeout(3)
            return "deep"

        def outer(env):
            result = yield from inner(env)
            return result + "!"

        assert env.run(until=env.process(outer(env))) == "deep!"
        assert env.now == 3

    def test_waiting_on_another_process(self, env):
        def worker(env):
            yield env.timeout(5)
            return "done"

        def boss(env, worker_proc):
            result = yield worker_proc
            return (env.now, result)

        w = env.process(worker(env))
        b = env.process(boss(env, w))
        assert env.run(until=b) == (5, "done")

    def test_waiting_on_finished_process(self, env):
        def worker(env):
            yield env.timeout(1)
            return 7

        def late(env, worker_proc):
            yield env.timeout(10)
            value = yield worker_proc
            return value

        w = env.process(worker(env))
        assert env.run(until=env.process(late(env, w))) == 7

    def test_exception_propagates_to_waiter(self, env):
        def failing(env):
            yield env.timeout(1)
            raise RuntimeError("boom")

        def waiter(env, proc):
            try:
                yield proc
            except RuntimeError as exc:
                return f"caught {exc}"

        p = env.process(failing(env))
        assert env.run(until=env.process(waiter(env, p))) == "caught boom"

    def test_unhandled_failure_raises_on_run_until(self, env):
        def failing(env):
            yield env.timeout(1)
            raise ValueError("oops")

        p = env.process(failing(env))
        with pytest.raises(ValueError):
            env.run(until=p)

    def test_yielding_non_event_raises_inside_process(self, env):
        def bad(env):
            try:
                yield "not an event"
            except SimulationError:
                return "rejected"
            return "accepted"

        assert env.run(until=env.process(bad(env))) == "rejected"

    def test_interrupt(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100)
            except SimulationError as exc:
                return f"interrupted at {env.now}: {exc}"
            return "slept"

        def interrupter(env, victim):
            yield env.timeout(2)
            victim.interrupt("wake up")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        result = env.run(until=victim)
        assert result.startswith("interrupted at 2")

    def test_stale_wakeup_ignored_after_interrupt(self, env):
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100)
            except SimulationError:
                log.append(("interrupted", env.now))
            yield env.timeout(50)
            log.append(("resumed", env.now))

        def interrupter(env, victim):
            yield env.timeout(10)
            victim.interrupt("now")

        victim = env.process(sleeper(env))
        env.process(interrupter(env, victim))
        env.run()
        # The stale timeout(100) firing at t=100 must not double-resume.
        assert log == [("interrupted", 10), ("resumed", 60)]


class TestEvents:
    def test_manual_event(self, env):
        ev = env.event()

        def trigger(env, ev):
            yield env.timeout(4)
            ev.succeed("payload")

        def waiter(env, ev):
            value = yield ev
            return (env.now, value)

        env.process(trigger(env, ev))
        assert env.run(until=env.process(waiter(env, ev))) == (4, "payload")

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError())

    def test_value_before_trigger_rejected(self, env):
        with pytest.raises(SimulationError):
            _ = env.event().value

    def test_all_of_collects_values(self, env):
        def proc(env, t):
            yield env.timeout(t)
            return t

        ps = [env.process(proc(env, t)) for t in (3, 1, 2)]
        assert env.run(until=env.all_of(ps)) == [3, 1, 2]
        assert env.now == 3

    def test_all_of_empty(self, env):
        assert env.run(until=env.all_of([])) == []

    def test_all_of_failure(self, env):
        def good(env):
            yield env.timeout(1)

        def bad(env):
            yield env.timeout(2)
            raise RuntimeError("nope")

        combo = env.all_of([env.process(good(env)), env.process(bad(env))])
        with pytest.raises(RuntimeError):
            env.run(until=combo)

    def test_failed_all_of_detaches_from_its_pending_children(self, env):
        """An AllOf that a failing child decides must not stay subscribed
        to its still-pending children: a long-lived child would keep one
        stale callback, and the join behind it, per join it was in."""
        never = env.event()
        for i in range(50):
            boom = env.event()
            barrier = env.all_of([never, boom])
            boom.fail(RuntimeError(f"job {i} failed"))
            with pytest.raises(RuntimeError):
                env.run(until=barrier)
        assert never.callbacks == []

    def test_failed_all_of_leaves_other_waiters_subscribed(self, env):
        shared = env.event()
        heard = []
        shared.callbacks.append(lambda ev: heard.append(ev.value))
        boom = env.event()
        first = env.all_of([shared, boom])
        second = env.all_of([env.timeout(1.0), shared])
        boom.fail(RuntimeError("gone"))
        with pytest.raises(RuntimeError):
            env.run(until=first)
        shared.succeed("late")
        assert env.run(until=second) == [None, "late"]
        assert heard == ["late"]


class TestRun:
    def test_run_until_time(self, env):
        ticks = []

        def clock(env):
            while True:
                yield env.timeout(1)
                ticks.append(env.now)

        env.process(clock(env))
        env.run(until=10)
        assert ticks == [float(t) for t in range(1, 11)]

    def test_run_drains_queue(self, env):
        def proc(env):
            yield env.timeout(7)

        env.process(proc(env))
        env.run()
        assert env.now == 7

    def test_deadlock_detected(self, env):
        def stuck(env):
            yield env.event()  # never triggered

        p = env.process(stuck(env))
        with pytest.raises(SimDeadlockError):
            env.run(until=p)


class TestKernelOrdering:
    """The ``(time, seq)`` contract over a scripted mix of every way an
    event gets scheduled: ``succeed`` with and without a delay, a
    ``Timeout``, a ``Process`` boot, an ``AllOf`` decided at
    construction, and ``interrupt``.  Events at one instant fire in the
    order they were scheduled; the expected log was recorded from the
    kernel before its constructors were inlined."""

    EXPECTED = [
        ("t0", 0.0),
        ("boot:sleeper", 0.0),
        ("e-now", 0.0),
        ("boot:driver", 0.0),
        ("boot:waiter", 0.0),
        ("waiter got", 0.0, "v-now"),
        ("boot:late", 0.0),
        ("late", 0.0, "spawned"),
        ("e-delay", 1.0),
        ("t1", 1.0),
        ("driver at", 1.0),
        ("all-decided", 1.0, ["v-now", "v-delay"]),
        ("sleeper interrupted", 1.0),
        ("boot:child", 1.0),
        ("child", 1.0),
        ("sleeper after", 1.0),
        ("driver done", 1.5),
        ("stale t3 ignored", 3.0),
    ]

    def test_scripted_mix_fires_in_recorded_order(self, env):
        log = []

        def note(tag, event):
            event.callbacks.append(lambda _ev: log.append((tag, env.now)))
            return event

        def proc(tag, gen):
            def booted():
                log.append((f"boot:{tag}", env.now))
                yield from gen

            return env.process(booted(), name=tag)

        def sleeper():
            try:
                yield note("stale t3 ignored", env.timeout(3.0))
            except SimulationError:
                log.append(("sleeper interrupted", env.now))
            yield env.timeout(0.0)
            log.append(("sleeper after", env.now))

        def waiter(event):
            value = yield event
            log.append(("waiter got", env.now, value))

        def late():
            yield env.timeout(0.0)
            log.append(("late", env.now, "spawned"))

        def child():
            log.append(("child", env.now))
            yield env.timeout(0.0)

        e_now = env.event()
        e_delay = env.event()

        def driver():
            yield env.timeout(1.0)
            log.append(("driver at", env.now))
            all_of = env.all_of([e_now, e_delay])
            all_of.callbacks.append(
                lambda ev: log.append(("all-decided", env.now, ev.value)))
            sleeper_proc.interrupt("driver")
            proc("child", child())
            yield env.timeout(0.5)
            log.append(("driver done", env.now))

        note("t0", env.timeout(0.0))
        sleeper_proc = proc("sleeper", sleeper())
        note("e-now", e_now).succeed("v-now")
        note("e-delay", e_delay).succeed("v-delay", delay=1.0)
        proc("driver", driver())
        proc("waiter", waiter(e_now))
        note("t1", env.timeout(1.0))
        proc("late", late())
        env.run()
        assert log == self.EXPECTED
        assert env.now == 3.0
