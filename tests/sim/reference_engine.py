"""A plain-heap event calendar, frozen as the oracle for the engine.

``repro.sim.engine.Environment`` routes an entry due at the current
instant to a FIFO lane beside its heap and drains that lane without
looking at the heap.  ``ReferenceEnvironment`` below is the calendar
without that lane: every entry, zero delay or not, is one
``(when, NORMAL, seq, event)`` tuple pushed on and popped off the heap.
Apart from the lane it is the engine's heap path kept as it was: one
``seq`` counter for every push, lazy discard of cancelled entries, and
the same compaction rule (more than ``CALENDAR_COMPACT_THRESHOLD`` dead
entries, and more dead than live).

``call_in(d, fn)`` is ``timeout(d).callbacks.append(...)``, the
equivalence the engine's ``call_in`` docstring promises.  Only what the
differential tests drive is here: events, timeouts, generator
processes, ``step``, ``peek`` and ``run(until=)``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional

from repro.sim.engine import CALENDAR_COMPACT_THRESHOLD, SimulationError

NORMAL = 1


class ReferenceEvent:
    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed",
                 "_defused", "_cancelled")

    def __init__(self, env: "ReferenceEnvironment"):
        self.env = env
        self.callbacks: Optional[List[Callable]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._cancelled = False

    def succeed(self, value: Any = None, delay: float = 0.0) -> "ReferenceEvent":
        if self._triggered:
            raise SimulationError("event already triggered")
        if self._cancelled:
            raise SimulationError("event was cancelled")
        if delay < 0:
            raise ValueError(f"negative event delay: {delay!r}")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "ReferenceEvent":
        if self._triggered:
            raise SimulationError("event already triggered")
        if self._cancelled:
            raise SimulationError("event was cancelled")
        if delay < 0:
            raise ValueError(f"negative event delay: {delay!r}")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay)
        return self

    def cancel(self) -> bool:
        if self._processed or self._cancelled:
            return False
        self._cancelled = True
        env = self.env
        env._cancelled_events += 1
        if self._triggered:  # a live calendar entry exists for it
            env._dead_entries += 1
            if (
                env._dead_entries > CALENDAR_COMPACT_THRESHOLD
                and env._dead_entries * 2 > len(env._calendar)
            ):
                env._compact()
        return True

    def defuse(self) -> None:
        self._defused = True


class ReferenceTimeout(ReferenceEvent):
    __slots__ = ()

    def __init__(self, env: "ReferenceEnvironment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self._triggered = True
        self._value = value
        env._schedule(self, delay)


class ReferenceProcess(ReferenceEvent):
    __slots__ = ("_generator",)

    def __init__(self, env: "ReferenceEnvironment", generator: Generator):
        super().__init__(env)
        self._generator = generator
        boot = ReferenceEvent(env)
        boot.callbacks.append(self._resume)
        boot.succeed()

    def _resume(self, event: ReferenceEvent) -> None:
        if event._ok:
            self._step(event._value, None)
        else:
            event.defuse()
            self._step(None, event._value)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        while True:
            try:
                if exc is None:
                    target = self._generator.send(value)
                else:
                    target = self._generator.throw(exc)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as caught:
                self.fail(caught)
                return
            if target.callbacks is not None:
                target.callbacks.append(self._resume)
                return
            if target._ok:  # already processed: resume synchronously
                value, exc = target._value, None
            else:
                target.defuse()
                value, exc = None, target._value


class ReferenceEnvironment:
    """The heap calendar with no same-instant lane."""

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._calendar: List = []
        self._seq = 0
        self._cancelled_events = 0
        self._stale_timers = 0
        self._dead_entries = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def cancelled_events(self) -> int:
        return self._cancelled_events

    @property
    def stale_timers(self) -> int:
        return self._stale_timers

    def event(self) -> ReferenceEvent:
        return ReferenceEvent(self)

    def timeout(self, delay: float, value: Any = None) -> ReferenceTimeout:
        return ReferenceTimeout(self, delay, value)

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        self.timeout(delay).callbacks.append(lambda _event: fn())

    def process(self, generator: Generator) -> ReferenceProcess:
        return ReferenceProcess(self, generator)

    def _schedule(self, event: ReferenceEvent, delay: float) -> None:
        self._seq += 1
        heapq.heappush(self._calendar, (self._now + delay, NORMAL, self._seq, event))

    def _compact(self) -> None:
        calendar = self._calendar
        live = [entry for entry in calendar if not entry[3]._cancelled]
        self._stale_timers += len(calendar) - len(live)
        calendar[:] = live
        heapq.heapify(calendar)
        self._dead_entries = 0

    def peek(self) -> float:
        calendar = self._calendar
        while calendar:
            if not calendar[0][3]._cancelled:
                return calendar[0][0]
            heapq.heappop(calendar)
            self._stale_timers += 1
            self._dead_entries -= 1
        return float("inf")

    def _fire(self, when: float, event: ReferenceEvent) -> None:
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def step(self) -> None:
        if self.peek() == float("inf"):
            raise SimulationError("empty calendar")
        when, _prio, _seq, event = heapq.heappop(self._calendar)
        self._fire(when, event)

    def run(self, until: Optional[float] = None) -> None:
        if until is not None and until < self._now:
            raise ValueError(f"until ({until}) is in the past (now={self._now})")
        calendar = self._calendar
        while calendar:
            if until is not None and calendar[0][0] > until:
                self._now = until
                return
            when, _prio, _seq, event = heapq.heappop(calendar)
            if event._cancelled:
                self._stale_timers += 1
                self._dead_entries -= 1
                continue
            self._fire(when, event)
        if until is not None:
            self._now = until
