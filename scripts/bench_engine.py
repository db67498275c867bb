#!/usr/bin/env python
"""Engine event-loop microbenchmark: legacy vs current hot path.

Measures events/second through ``repro.sim.engine`` on three synthetic
workloads that isolate the event-loop hot path (no DSA model code):

* ``timeout_chain`` — N processes, each yielding M timeouts.  This is
  the dominant pattern in the simulator (every modelled latency is a
  ``yield env.timeout(...)``).
* ``ping_pong``     — two processes signalling each other through
  plain events (succeed → resume chains).
* ``fanout``        — processes waiting on ``all_of`` conditions over
  timeout fan-outs.

Two more are recorded outside the gated geomean: ``high_pending`` (1M
concurrent timers) and ``same_instant`` (zero-delay ``succeed()``
hand-offs between positive timeouts).

"Before" numbers come from a verbatim copy of the pre-optimization
engine (commit 447e725) embedded below as the ``legacy`` classes, so
the comparison runs both implementations on the same interpreter, same
machine, back to back.  "After" numbers run the installed
``repro.sim.engine``.  Results are written as JSON (default
``BENCH_engine.json``)::

    PYTHONPATH=src python scripts/bench_engine.py --out BENCH_engine.json

Methodology: each (engine, workload) pair runs ``--repeats`` times and
the best run wins (minimum wall time — the standard way to strip
scheduler noise from a CPU-bound microbenchmark).  Events/sec counts
calendar entries actually processed.
"""

from __future__ import annotations

import heapq
import sys
from itertools import count

from _bench_common import base_parser, best_of, gate_exit, geomean, write_json
from repro.sim.engine import Environment

# ---------------------------------------------------------------------------
# Legacy engine: verbatim hot path of src/repro/sim/engine.py @ 447e725
# (per-resume lambda allocations, __init__-chain Timeout construction,
# _schedule indirection, step() call per event).  Only the obs-hook
# lookups in Environment.__init__ are dropped — they run once per
# environment, not per event, so they do not affect events/sec.
# ---------------------------------------------------------------------------

URGENT = 0
NORMAL = 1


class LegacySimulationError(RuntimeError):
    pass


class LegacyEvent:
    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused")

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False

    def succeed(self, value=None, delay=0.0):
        if self._triggered:
            raise LegacySimulationError("event already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self, delay)
        return self

    def fail(self, exception, delay=0.0):
        if self._triggered:
            raise LegacySimulationError("event already triggered")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay)
        return self

    def defuse(self):
        self._defused = True


class LegacyTimeout(LegacyEvent):
    __slots__ = ()

    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self._triggered = True
        self._ok = True
        self._value = value
        env._schedule(self, delay)


class LegacyCondition(LegacyEvent):
    __slots__ = ("_events", "_need", "_done")

    def __init__(self, env, events, wait_all):
        super().__init__(env)
        self._events = list(events)
        self._done = 0
        self._need = len(self._events) if wait_all else min(1, len(self._events))
        if self._need == 0:
            self.succeed({})
            return
        for ev in self._events:
            if ev.callbacks is None:
                self._collect(ev)
            else:
                ev.callbacks.append(self._collect)

    def _collect(self, ev):
        if self._triggered:
            return
        if not ev._ok:
            ev.defuse()
            self.fail(ev._value)
            return
        self._done += 1
        if self._done >= self._need:
            self.succeed({e: e._value for e in self._events if e._processed and e._ok})


class LegacyProcess(LegacyEvent):
    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env, generator, name=""):
        super().__init__(env)
        self._generator = generator
        self._target = None
        self.name = name or "process"
        boot = LegacyEvent(env)
        boot.callbacks.append(self._resume)
        boot.succeed()

    def _resume(self, event):
        self._target = None
        if event._ok:
            self._step(lambda: self._generator.send(event._value))
        else:
            event.defuse()
            self._step(lambda: self._generator.throw(event._value))

    def _step(self, advance):
        self.env._active_process = self
        try:
            target = advance()
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.env._active_process = None
            self.fail(exc)
            return
        self.env._active_process = None
        if not isinstance(target, LegacyEvent):
            self._step(
                lambda: self._generator.throw(
                    LegacySimulationError(f"process yielded non-event {target!r}")
                )
            )
            return
        if target.callbacks is None:
            self._resume(target)
        else:
            self._target = target
            target.callbacks.append(self._resume)


class LegacyEnvironment:
    def __init__(self, initial_time=0.0):
        self._now = float(initial_time)
        self._calendar = []
        self._seq = count()
        self._active_process = None

    @property
    def now(self):
        return self._now

    def event(self):
        return LegacyEvent(self)

    def timeout(self, delay, value=None):
        return LegacyTimeout(self, delay, value)

    def process(self, generator, name=""):
        return LegacyProcess(self, generator, name=name)

    def all_of(self, events):
        return LegacyCondition(self, events, wait_all=True)

    def _schedule(self, event, delay=0.0, priority=NORMAL):
        heapq.heappush(self._calendar, (self._now + delay, priority, next(self._seq), event))

    def step(self):
        if not self._calendar:
            raise LegacySimulationError("empty calendar")
        when, _prio, _seq, event = heapq.heappop(self._calendar)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until=None):
        while self._calendar:
            self.step()


# ---------------------------------------------------------------------------
# Workloads — written against the tiny common surface both engines share
# (env.timeout / env.event / env.process / env.all_of / env.run).
# ---------------------------------------------------------------------------


def timeout_chain(env, n_procs=50, n_yields=4000):
    """The dominant pattern: every modelled latency is a yield-timeout."""

    def proc(delay):
        for _ in range(n_yields):
            yield env.timeout(delay)

    for i in range(n_procs):
        env.process(proc(1.0 + i * 0.01))
    env.run()
    return n_procs * (n_yields + 1)  # +1 boot event per process


def ping_pong(env, n_pairs=20, n_rounds=5000):
    """Event succeed → resume chains between process pairs."""

    done = []

    def player(inbox, outbox):
        for _ in range(n_rounds):
            yield inbox[0]
            inbox[0] = env.event()
            outbox[0].succeed()
        done.append(1)

    for _ in range(n_pairs):
        a, b = [env.event()], [env.event()]
        env.process(player(a, b))
        env.process(player(b, a))
        a[0].succeed()
    env.run()
    assert len(done) == 2 * n_pairs
    return n_pairs * 2 * (n_rounds + 1)


def fanout(env, n_procs=40, n_rounds=400, width=8):
    """all_of conditions over timeout fan-outs."""

    def proc():
        for r in range(n_rounds):
            yield env.all_of([env.timeout(float(w % 3) + 1.0) for w in range(width)])

    for _ in range(n_procs):
        env.process(proc())
    env.run()
    return n_procs * n_rounds * (width + 1)


def high_pending(env, n_timers=1_000_000, qd=16):
    """>=1M concurrent pending timers (paper-scale descriptor counts).

    The full wave schedule (QD-16 completion ties) is armed up front,
    then the calendar drains with a million entries pending.  Reported
    *outside* the geomean gate: at this depth both engines spend their
    time in heapq's C sift code, so the ratio measures allocation
    overhead more than the loop rewrites this bench gates.  No shipped
    run comes near this depth (the largest heap seen on the benchmark
    workloads held 698 entries).
    """
    timeout = env.timeout
    when = 0.0
    for wave in range(n_timers // qd):
        when += 1.0 + (wave % 7)
        for _ in range(qd):
            timeout(when)
    env.run()
    return n_timers


def same_instant(env, n_chains=64, n_hops=1500, fan=3):
    """Zero-delay ``succeed()`` hand-offs interleaved with positive timeouts.

    Each chain is a callback pipeline shaped like a descriptor's: a
    positive timeout, then ``fan`` zero-delay hand-offs (an event whose
    callback triggers the next), then the next timeout.  Chains share
    instants, so hand-offs pushed at an instant queue behind heap
    entries already due then — the case the heap calendar's same-instant
    lane serves.  Reported outside the geomean gate, which it would
    otherwise re-weight.
    """

    def start(chain, hop):
        if hop < n_hops:
            env.timeout(1.0 + chain % 4).callbacks.append(
                lambda _ev: handoff(chain, hop, fan)
            )

    def handoff(chain, hop, left):
        if not left:
            start(chain, hop + 1)
            return
        event = env.event()
        event.callbacks.append(lambda _ev: handoff(chain, hop, left - 1))
        event.succeed()

    for chain in range(n_chains):
        start(chain, 0)
    env.run()
    return n_chains * n_hops * (1 + fan)


WORKLOADS = {
    "timeout_chain": timeout_chain,
    "ping_pong": ping_pong,
    "fanout": fanout,
}

#: Measured and recorded, but kept out of the gated geomean (see each
#: docstring).  Capped repeats: one high_pending run is ~10s of heapq.
EXTRA_WORKLOADS = {
    "high_pending": high_pending,
    "same_instant": same_instant,
}


def measure(env_factory, workload, repeats):
    best = best_of(repeats, workload, setup=env_factory)
    return best.rate(), best.value, best.seconds


def main(argv=None):
    parser = base_parser(__doc__.splitlines()[0], "BENCH_engine.json")
    parser.add_argument("--target", type=float, default=1.3, help="required overall speedup")
    args = parser.parse_args(argv)

    results = {}
    speedups = []
    for name, workload in WORKLOADS.items():
        before_eps, events, before_t = measure(LegacyEnvironment, workload, args.repeats)
        after_eps, _, after_t = measure(Environment, workload, args.repeats)
        speedup = after_eps / before_eps
        speedups.append(speedup)
        results[name] = {
            "events": events,
            "before_events_per_sec": round(before_eps),
            "after_events_per_sec": round(after_eps),
            "before_best_s": round(before_t, 4),
            "after_best_s": round(after_t, 4),
            "speedup": round(speedup, 3),
        }
        print(
            f"{name:14s}  before {before_eps/1e6:6.2f} M ev/s   "
            f"after {after_eps/1e6:6.2f} M ev/s   x{speedup:.2f}"
        )

    for name, workload in EXTRA_WORKLOADS.items():
        repeats = min(args.repeats, 3)
        before_eps, events, before_t = measure(LegacyEnvironment, workload, repeats)
        after_eps, _, after_t = measure(Environment, workload, repeats)
        speedup = after_eps / before_eps
        results[name] = {
            "events": events,
            "before_events_per_sec": round(before_eps),
            "after_events_per_sec": round(after_eps),
            "before_best_s": round(before_t, 4),
            "after_best_s": round(after_t, 4),
            "speedup": round(speedup, 3),
            "in_geomean": False,
        }
        print(
            f"{name:14s}  before {before_eps/1e6:6.2f} M ev/s   "
            f"after {after_eps/1e6:6.2f} M ev/s   x{speedup:.2f}  (ungated)"
        )

    overall = geomean(speedups)
    write_json(
        args.out,
        {
            "benchmark": "repro.sim.engine event loop",
            "repeats": args.repeats,
            "workloads": results,
            "overall_speedup_geomean": round(overall, 3),
            "target": args.target,
            "pass": overall >= args.target,
        },
    )
    print(f"overall geomean x{overall:.2f} (target x{args.target}) -> {args.out}")
    return gate_exit(overall >= args.target, args.require)


if __name__ == "__main__":
    sys.exit(main())
