"""Discrete-event simulation kernel: environment, events, processes.

Processes are generators that yield :class:`Event` objects.  When a
yielded event *fires*, the generator is resumed with the event's value
(or the event's exception is thrown into it).  The environment pops
events off a time-ordered heap; simultaneous events fire in scheduling
order (a monotonically increasing sequence number breaks ties), which
makes runs fully deterministic.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable

from repro.errors import SimDeadlockError, SimulationError

__all__ = ["Environment", "Event", "Timeout", "Process", "AllOf", "AnyOf"]

SimGenerator = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence with callbacks and an optional value."""

    __slots__ = ("env", "callbacks", "_value", "_exc", "_triggered", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._exc: BaseException | None = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exc is not None:
            raise self._exc
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        # Environment._schedule, inlined: this is the hottest push.
        env = self.env
        seq = env._seq
        heappush(env._queue, (env._now + delay, seq, self))
        env._seq = seq + 1
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire with an exception."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._exc = exc
        self.env._schedule(self, delay)
        return self


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout {delay}")
        # Event.__init__ and Environment._schedule, inlined.
        self.env = env
        self.callbacks = []
        self._value = value
        self._exc = None
        self._triggered = True
        self._processed = False
        seq = env._seq
        heappush(env._queue, (env._now + delay, seq, self))
        env._seq = seq + 1


class Process(Event):
    """A running generator; fires (as an event) when the generator returns."""

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: SimGenerator, name: str = "") -> None:
        self.env = env
        self.callbacks = []
        self._value = None
        self._exc = None
        self._triggered = False
        self._processed = False
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the generator at the current time (a boot
        # event succeeded now, with Environment._schedule inlined).
        boot = Event(env)
        boot.callbacks.append(self._resume)
        boot._triggered = True
        self._target: Event | None = boot
        seq = env._seq
        heappush(env._queue, (env._now, seq, boot))
        env._seq = seq + 1

    def _resume(self, trigger: Event) -> None:
        if trigger is not self._target:
            return  # stale wakeup (e.g. the event an interrupted wait held)
        generator = self._generator
        while True:
            try:
                if trigger._exc is not None:
                    target = generator.throw(trigger._exc)
                else:
                    target = generator.send(trigger._value)
            except StopIteration as stop:
                if not self._triggered:
                    self.succeed(stop.value)
                return
            except BaseException as exc:  # propagate failures to waiters
                if not self._triggered:
                    self.fail(exc)
                    return
                raise
            if not isinstance(target, Event):
                # Loop around with a synthetic failed trigger so the
                # error is thrown into the generator under the same
                # StopIteration/exception handling as real events.
                bad = Event(self.env)
                bad._triggered = True
                bad._exc = SimulationError(
                    f"process yielded non-event {target!r}"
                )
                trigger = bad
                continue
            if target._processed:
                # Already fired: loop and resume immediately with its value.
                self._target = target
                trigger = target
                continue
            self._target = target
            target.callbacks.append(self._resume)
            return

    def interrupt(self, reason: str = "") -> None:
        """Throw :class:`SimulationError` into the process at the next step."""
        punch = Event(self.env)
        self._target = punch
        punch.callbacks.append(self._resume)
        punch.fail(SimulationError(f"interrupted: {reason}"))


def _detach(joined: "AllOf | AnyOf", decider: Event) -> None:
    """Unsubscribe a decided AllOf/AnyOf from its still-pending children,
    so a long-lived child (a worker's death event) does not keep it alive."""
    on_child = joined._on_child
    for ev in joined._events:
        if ev is not decider and not ev._processed:
            try:
                ev.callbacks.remove(on_child)
            except ValueError:
                pass  # never subscribed (decided at construction)


class AllOf(Event):
    """Fires when all given events have fired; value is their value list."""

    __slots__ = ("_pending", "_events")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        for ev in self._events:
            if not ev._processed:
                self._pending += 1
                ev.callbacks.append(self._on_child)
        if self._pending == 0:
            self.succeed([ev.value for ev in self._events])

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return
        if child._exc is not None:
            self.fail(child._exc)
            _detach(self, child)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev._value for ev in self._events])


class AnyOf(Event):
    """Fires when the first of the given events fires.

    The value is ``(winner, winner.value)`` so waiters can tell *which*
    event won the race without re-inspecting every candidate.  A failing
    child fails the race with the child's exception.  Children that fire
    after the race is decided are ignored — they are not cancelled, so
    side effects of losing events still happen in the background.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf requires at least one event")
        for ev in self._events:
            if ev._processed:
                # Already fired: the race is decided at construction.
                self._on_child(ev)
                break
            ev.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return
        if child._exc is not None:
            self.fail(child._exc)
        else:
            self.succeed((child, child._value))
        _detach(self, child)


class Environment:
    """The event loop: a time-ordered heap of (time, seq, event)."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        # Event.succeed, Timeout and Process push the same way, inlined.
        heappush(self._queue, (self._now + delay, self._seq, event))
        self._seq += 1

    def event(self) -> Event:
        """A fresh untriggered event (to be succeeded/failed manually)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: SimGenerator, name: str = "") -> Process:
        """Register a generator as a simulated process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing once every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event firing when the first event in ``events`` fires."""
        return AnyOf(self, events)

    def step(self) -> None:
        """Fire the next scheduled event."""
        when, _seq, event = heappop(self._queue)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = []
        event._processed = True
        for callback in callbacks:
            callback(event)

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        * ``until`` is ``None`` — run until no events remain.
        * ``until`` is a number — run until the clock would pass it.
        * ``until`` is an :class:`Event` — run until that event fires and
          return its value; raise :class:`SimDeadlockError` if the queue
          drains first.
        """
        queue = self._queue
        step = self.step
        if isinstance(until, Event):
            target = until
            while not target._processed:
                if not queue:
                    raise SimDeadlockError(
                        "event queue drained before awaited event fired"
                    )
                step()
            return target.value
        horizon = float("inf") if until is None else float(until)
        while queue and queue[0][0] <= horizon:
            step()
        if until is not None:
            self._now = max(self._now, horizon) if self._queue else self._now
        return None
