"""Core event loop: simulated clock, events, and generator processes.

The engine follows the classic event-calendar design: a calendar of
``(when, seq, item)`` entries, popped in order.  ``seq`` comes from one
counter for every push, so no two entries tie and the comparison never
reaches the item.  An item is either an :class:`Event`, whose callbacks
run when it pops, or a plain callable pushed by
:meth:`Environment.call_in` (a *bare entry*), which is simply called.
Model code is written as generator functions ("processes") that
``yield`` events; when a yielded event triggers, the process is resumed
with the event's value.

Three forms, by who waits (docs/ARCHITECTURE.md, Layer 1):

* a bare entry for one hop of a fixed chain that exactly one party
  continues — a per-descriptor stage, a flow report, an arrival, a CPU
  pool worker's wake-up or service time;
* an :class:`Event` for a wait that several parties may share, or that
  must be cancellable or yieldable;
* a :class:`Process` for a long-lived loop written as a generator.

A bare entry takes its ``seq`` from the same counter at the point of
the push, so a model moved from ``timeout(d).callbacks.append(fn)`` to
``call_in(d, fn)`` pops in exactly the same order.  Bare entries are
never cancelled.

The calendar is a binary heap, popped in ``(when, seq)`` order.  Beside
the heap it keeps a *same-instant lane*: a FIFO (``collections.deque``)
of the items whose computed ``when`` equals the clock at the push
(``now + delay == now``, which also catches a positive delay rounded
away at a large ``now``).  The entry still takes its ``seq``; the lane
holds just the item, since its key is implied.
The order stays exact by construction: a heap entry keyed at ``now``
was pushed before the clock reached ``now``, so its ``seq`` is smaller
than any lane entry's, and once the clock is at ``now`` no push can put
a heap entry there.  So the run loop pops heap entries while the heap
head is ``<= now``, then drains the lane without looking at the heap
again.  On the benchmark workloads 35–40% of all entries skip the
heap push and pop this way (docs/PERFORMANCE.md §15).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs uses sim.stats)
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import Tracer

#: Bound once: ``Environment.timeout`` allocates events without running
#: the ``__init__`` chain (see its docstring).
_new_event = object.__new__

#: Bound once: a module-global load is one opcode cheaper than
#: ``heapq.heappush`` (global + attribute) in the scheduling hot paths.
_heappush = heapq.heappush
_heappop = heapq.heappop

#: Calendar compaction: when more than this many cancelled entries sit
#: in the calendar *and* they outnumber the live entries, the calendar
#: is rebuilt without them (one O(n) pass instead of n O(log n) pops).
CALENDAR_COMPACT_THRESHOLD = 64


#: :class:`Event` and every subclass (``Event.__init_subclass__`` adds
#: them): the run loops tell an event from a bare entry's callable by
#: one set lookup on ``type(item)``, which costs no call.
_EVENT_TYPES: set = set()


def _is_dead(entry) -> bool:
    """True for a cancelled Event's calendar entry (bare entries never are)."""
    item = entry[2]
    return type(item) in _EVENT_TYPES and item._cancelled


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (double trigger, bad yield)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulation calendar.

    An event starts *pending*, becomes *triggered* when given a value via
    :meth:`succeed` or :meth:`fail`, and *processed* once its callbacks
    have run.  Processes wait on events by yielding them.

    A scheduled event can also be *cancelled* (:meth:`cancel`): its
    callbacks will never run and its calendar entry is discarded lazily
    — the primary use is killing a speculative timer (a link wake, a
    wait deadline) the moment it becomes stale, instead of letting it
    fire and version-check itself into a no-op.
    """

    __slots__ = (
        "env",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_processed",
        "_defused",
        "_cancelled",
    )

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        _EVENT_TYPES.add(cls)

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event has no outcome yet")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has no value yet")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``.

        The calendar insert is inlined (rather than calling
        ``env._schedule``) because succeed is the scheduling path of
        every process completion and ping-pong style handoff.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        if self._cancelled:
            raise SimulationError("event was cancelled")
        if delay < 0:
            raise ValueError(f"negative event delay: {delay!r}")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        now = env._now
        when = now + delay
        if when == now:
            env._lane.append(self)
        else:
            _heappush(env._calendar, (when, env._seq, self))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiting processes see the exception."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if self._cancelled:
            raise SimulationError("event was cancelled")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if delay < 0:
            raise ValueError(f"negative event delay: {delay!r}")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay)
        return self

    def cancel(self) -> bool:
        """Cancel the event: its callbacks will never run.

        Contract (see ``docs/PERFORMANCE.md``):

        * Cancelling a *scheduled* event (triggered but not yet
          processed — e.g. a pending :class:`Timeout`) discards its
          calendar entry lazily: the entry is skipped when popped, or
          swept in bulk once cancelled entries dominate the calendar
          (:data:`CALENDAR_COMPACT_THRESHOLD`).  The simulated clock
          never advances *because of* a cancelled entry.
        * Cancelling a *pending* event makes a later ``succeed()`` /
          ``fail()`` raise :class:`SimulationError`.
        * Cancelling an already-processed or already-cancelled event is
          a no-op.  Returns True only when this call did the cancel.
        * A process must not yield an event that may be cancelled — the
          process would never resume.  Cancellation is for timers whose
          owner re-arms elsewhere (links, wait deadlines).
        """
        if self._processed or self._cancelled:
            return False
        self._cancelled = True
        env = self.env
        env._cancelled_events += 1
        if self._triggered:  # a live calendar entry exists for it
            env._dead_entries += 1
            # The pending count is only taken past the threshold: most
            # cancels never reach it, and each len() is a host call.
            if env._dead_entries > CALENDAR_COMPACT_THRESHOLD:
                if env._dead_entries * 2 > len(env._calendar) + len(env._lane):
                    env._compact()
        return True

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True


_EVENT_TYPES.add(Event)


class Timeout(Event):
    """Event that triggers after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self._triggered = True
        self._ok = True
        self._value = value
        env._schedule(self, delay)


class Condition(Event):
    """Waits for all (or any) of a set of events.

    The value of a condition is a dict mapping each triggered source
    event to its value.
    """

    __slots__ = ("_events", "_need", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event], wait_all: bool):
        super().__init__(env)
        self._events = list(events)
        self._done = 0
        self._need = len(self._events) if wait_all else min(1, len(self._events))
        if self._need == 0:
            self.succeed({})
            return
        for ev in self._events:
            if ev.callbacks is None:  # already processed
                self._collect(ev)
            else:
                ev.callbacks.append(self._collect)

    def _collect(self, ev: Event) -> None:
        if self._triggered or self._cancelled:
            return
        if not ev._ok:
            ev.defuse()
            self.fail(ev._value)
            return
        self._done += 1
        if self._done >= self._need:
            # Only events that actually fired (processed) contribute a
            # value — a pending Timeout is scheduled but hasn't happened.
            self.succeed({e: e._value for e in self._events if e._processed and e._ok})


class Process(Event):
    """A running generator; also an event that triggers when it returns.

    The generator yields :class:`Event` instances.  ``return value``
    (or ``StopIteration(value)``) becomes the process event's value.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        super().__init__(env)
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {type(generator).__name__}")
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        boot = Event(env)
        boot.callbacks.append(self._resume)
        boot.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def cancel(self) -> bool:
        """Processes cannot be cancelled — use :meth:`interrupt`.

        A cancelled process event would make the generator's final
        ``succeed`` blow up long after the caller moved on; interrupt
        delivers a catchable exception at a defined point instead.
        """
        raise SimulationError(f"cannot cancel process {self.name!r}; use interrupt()")

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a documented no-op: an
        interrupter and its victim's completion can legitimately race
        at the same timestamp (e.g. a watchdog firing just as the
        watched transfer completes), and the interrupt may also land
        after the process triggered between scheduling and delivery of
        the kicker event.  Both orderings simply deliver nothing.
        """
        if self._triggered:
            return
        kicker = Event(self.env)
        kicker.callbacks.append(lambda ev: self._throw(Interrupt(cause)))
        kicker.succeed(delay=0.0)

    def _throw(self, exc: BaseException) -> None:
        if self._triggered:
            return
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        self._step(None, exc)

    def _resume(self, event: Event) -> None:
        self._target = None
        if event._ok:
            self._step(event._value, None)
        else:
            event.defuse()
            self._step(None, event._value)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        """Advance the generator once: ``send(value)``, or ``throw(exc)``
        when ``exc`` is not None.

        Hot path: this used to take an ``advance`` closure, which cost a
        fresh lambda allocation per resume.  Passing the send-value /
        throw-exception pair directly removes that allocation, and the
        loop (rather than recursion) keeps chains of already-processed
        targets off the Python stack.
        """
        env = self.env
        generator = self._generator
        while True:
            env._active_process = self
            try:
                if exc is None:
                    target = generator.send(value)
                else:
                    target = generator.throw(exc)
            except StopIteration as stop:
                env._active_process = None
                self.succeed(stop.value)
                return
            except BaseException as caught:
                env._active_process = None
                self.fail(caught)
                return
            env._active_process = None
            if isinstance(target, Event):
                callbacks = target.callbacks
                if callbacks is not None:
                    self._target = target
                    callbacks.append(self._resume)
                    return
                # Already processed: resume immediately (synchronously).
                if target._ok:
                    value, exc = target._value, None
                else:
                    target.defuse()
                    value, exc = None, target._value
            else:
                value, exc = None, SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                )


class Environment:
    """The simulation world: clock, calendar, and process factory.

    Every environment carries two observability hooks (see
    ``docs/OBSERVABILITY.md``):

    * ``tracer`` — span/instant event recorder.  Defaults to the
      installed tracer (the no-op :data:`~repro.obs.tracer.NULL_TRACER`
      unless the CLI or a test installed a live one), so hot paths pay
      one attribute check when tracing is off.
    * ``metrics`` — registry of named counters/gauges/histograms that
      components update as they run.  Defaults to the installed shared
      registry, or a private one per environment.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        tracer: Optional["Tracer"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ):
        # Imported here, not at module level: repro.obs depends on
        # repro.sim.stats, so a top-level import would be circular.
        from repro.obs.metrics import MetricsRegistry, installed_metrics
        from repro.obs.tracer import installed_tracer

        self._now = float(initial_time)
        self._calendar: List = []
        # The same-instant lane: items due at _now, in seq order (see
        # the module docstring).
        self._lane: deque = deque()
        self._seq = 0
        self._active_process: Optional[Process] = None
        # Cancellation bookkeeping: totals are exposed as properties and
        # flushed into the metrics registry when run() returns, so the
        # hot path pays integer increments only.
        self._cancelled_events = 0  # Event.cancel() calls
        self._stale_timers = 0  # cancelled calendar entries swept
        self._dead_entries = 0  # cancelled entries still in the heap
        self._cancelled_flushed = 0
        self._stale_flushed = 0
        self.tracer = tracer if tracer is not None else installed_tracer()
        if metrics is None:
            # Explicit None checks: an empty registry is falsy (len 0).
            metrics = installed_metrics()
            if metrics is None:
                metrics = MetricsRegistry()
        self.metrics = metrics

    @property
    def now(self) -> float:
        """Current simulated time (nanoseconds by convention in repro)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories ------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A pre-triggered event that fires after ``delay``.

        This is the engine's dominant allocation (``yield
        env.timeout(...)`` inside every model loop), so it bypasses the
        ``Timeout.__init__`` / ``Event.__init__`` / ``_schedule`` call
        chain and builds the object and its calendar entry inline.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        ev = _new_event(Timeout)
        ev.env = self
        ev.callbacks = []
        ev._value = value
        ev._ok = True
        ev._triggered = True
        ev._processed = False
        ev._defused = False
        ev._cancelled = False
        self._seq += 1
        now = self._now
        when = now + delay
        if when == now:
            self._lane.append(ev)
        else:
            _heappush(self._calendar, (when, self._seq, ev))
        return ev

    def call_in(self, delay: float, fn: Callable[[], None]) -> None:
        """Call ``fn()`` after ``delay``: a bare calendar entry.

        Pushes ``(now + delay, seq, fn)`` with ``seq`` from the
        same counter as every other entry, so it pops exactly where
        ``timeout(delay).callbacks.append(fn)`` would — without the
        :class:`Timeout` and its callbacks list.  For one hop of a fixed
        chain that nobody else waits on: the entry cannot be cancelled,
        yielded or waited for.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        self._seq += 1
        now = self._now
        when = now + delay
        if when == now:
            self._lane.append(fn)
        else:
            _heappush(self._calendar, (when, self._seq, fn))

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> Condition:
        return Condition(self, events, wait_all=True)

    def any_of(self, events: Iterable[Event]) -> Condition:
        return Condition(self, events, wait_all=False)

    # -- scheduling ------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        now = self._now
        when = now + delay
        if when == now:
            self._lane.append(event)
        else:
            _heappush(self._calendar, (when, self._seq, event))

    # -- cancellation bookkeeping ---------------------------------------
    @property
    def cancelled_events(self) -> int:
        """Total :meth:`Event.cancel` calls on this environment."""
        return self._cancelled_events

    @property
    def stale_timers(self) -> int:
        """Cancelled calendar entries discarded so far (lazy + compaction)."""
        return self._stale_timers

    def _compact(self) -> None:
        """Rebuild the calendar without cancelled entries (one O(n) pass).

        In place: ``run()`` binds the calendar list and the lane
        locally for speed, so their identities must survive compaction.
        """
        calendar = self._calendar
        live = [entry for entry in calendar if not _is_dead(entry)]
        lane = self._lane
        live_lane = [
            item for item in lane if not (type(item) in _EVENT_TYPES and item._cancelled)
        ]
        self._stale_timers += len(calendar) - len(live) + len(lane) - len(live_lane)
        calendar[:] = live
        heapq.heapify(calendar)
        lane.clear()
        lane.extend(live_lane)
        self._dead_entries = 0

    def _flush_cancel_metrics(self) -> None:
        """Publish the counter pair to the metrics registry (delta-based)."""
        delta = self._cancelled_events - self._cancelled_flushed
        if delta:
            self.metrics.counter("sim.cancelled_events").add(delta)
            self._cancelled_flushed = self._cancelled_events
        delta = self._stale_timers - self._stale_flushed
        if delta:
            self.metrics.counter("sim.stale_timers").add(delta)
            self._stale_flushed = self._stale_timers

    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none."""
        calendar = self._calendar
        lane = self._lane
        while True:
            # The heap head goes first while it is due now (see run()).
            if calendar and (not lane or calendar[0][0] <= self._now):
                if not _is_dead(calendar[0]):
                    return calendar[0][0]
                _heappop(calendar)
            elif lane:
                item = lane[0]
                if not (type(item) in _EVENT_TYPES and item._cancelled):
                    return self._now
                lane.popleft()
            else:
                return float("inf")
            self._stale_timers += 1
            self._dead_entries -= 1

    def step(self) -> None:
        """Process exactly one live entry from the calendar: call a bare
        entry's function, or run an event's callbacks.

        Cancelled entries encountered on the way are discarded without
        advancing the clock — they never happened.
        """
        calendar = self._calendar
        lane = self._lane
        while True:
            if calendar and (not lane or calendar[0][0] <= self._now):
                when, _seq, event = _heappop(calendar)
            elif lane:
                when = self._now
                event = lane.popleft()
            else:
                raise SimulationError("empty calendar")
            if type(event) not in _EVENT_TYPES:  # bare entry
                self._now = when
                event()
                return
            if event._cancelled:
                self._stale_timers += 1
                self._dead_entries -= 1
                continue
            break
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or the clock reaches ``until``.

        The body of :meth:`step` is inlined here (with locals bound for
        the heap and calendar) — one method call and one bounds check
        per event add up over the millions of events a sweep processes.
        Semantics are identical to calling :meth:`step` in a loop.  A
        bare entry (:meth:`call_in`) is told apart from an event by one
        set lookup on its type and simply called.

        The heap is popped while its head is due at or before ``now``;
        then the same-instant lane drains in its own inner loop, which
        never re-checks the heap (the module docstring has the
        argument), before the next heap pop moves the clock.
        """
        if until is not None and until < self._now:
            raise ValueError(f"until ({until}) is in the past (now={self._now})")
        event_types = _EVENT_TYPES
        calendar = self._calendar
        lane = self._lane
        pop = _heappop
        popleft = lane.popleft
        try:
            while True:
                if lane and (not calendar or calendar[0][0] > self._now):
                    # Every lane entry is due now, after every heap entry
                    # at now, and no heap entry at now can be pushed
                    # while it drains: no heap check per entry.
                    while lane:
                        event = popleft()
                        if type(event) not in event_types:  # bare entry
                            event()
                            continue
                        if event._cancelled:
                            self._stale_timers += 1
                            self._dead_entries -= 1
                            continue
                        callbacks, event.callbacks = event.callbacks, None
                        event._processed = True
                        for callback in callbacks:
                            callback(event)
                        if not event._ok and not event._defused:
                            raise event._value
                if not calendar:
                    break
                if until is not None and calendar[0][0] > until:
                    self._now = until
                    return
                when, _seq, event = pop(calendar)
                if type(event) not in event_types:  # bare entry
                    self._now = when
                    event()
                    continue
                if event._cancelled:
                    # Lazily discard; the clock does not advance for a
                    # timer that was cancelled before it fired.
                    self._stale_timers += 1
                    self._dead_entries -= 1
                    continue
                self._now = when
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            if until is not None:
                self._now = until
        finally:
            if (
                self._cancelled_events != self._cancelled_flushed
                or self._stale_timers != self._stale_flushed
            ):
                self._flush_cancel_metrics()
