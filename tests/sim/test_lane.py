"""The heap calendar's same-instant lane (``repro.sim.engine``).

A push whose ``when`` equals the clock goes to a FIFO beside the heap
instead of the heap.  The oracle is ``ReferenceEnvironment``
(``tests/sim/reference_engine.py``), a frozen plain-heap calendar with
no lane: every schedule must pop in the same order, at the same times,
with the same ``seq`` count and churn counters, on both.

The schedules mix ``call_in``, ``timeout``, ``succeed`` and ``fail`` at
zero and positive delays, including a positive delay that rounds away
at ``initial_time=1e12``.  Callbacks cancel single timers and whole
bursts past the compaction threshold from inside the run loop.  An
outer loop interleaves ``step()``, ``peek()``, ``run(until=)`` and bulk
cancels of timer bursts between the runs, so the calendar compacts
while the lane holds dead entries.
"""

import random
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, SimulationError
from repro.sim.engine import CALENDAR_COMPACT_THRESHOLD
from tests.sim.reference_engine import ReferenceEnvironment

#: The engine and its frozen plain-heap oracle: both must hold the
#: calendar properties the named tests below pin.
ENGINES = [
    pytest.param(Environment, id="heap"),
    pytest.param(ReferenceEnvironment, id="reference"),
]

#: 1e-5 is a real delay at t=0 and rounds away at t=1e12 (ulp 1.2e-4):
#: there it must join the lane like a zero delay.
TINY = 1e-5
DELAYS = (0.0, 0.0, 0.0, TINY, 1.0, 1.0, 2.5)

#: A timer burst one cancel sweep past the compaction threshold.
BURST = CALENDAR_COMPACT_THRESHOLD + 6

KINDS = ("call", "timeout", "succeed", "fail", "raise", "zcancel", "burst", "icancel")


class Abort(Exception):
    """An undefused failure: it propagates out of ``run()``/``step()``."""


def execute(program, ops, make_env, initial_time):
    """Run ``program`` under the outer-loop ``ops``; return the pop log
    and the counters at every outer-loop checkpoint."""
    env = make_env(initial_time=initial_time)
    log = []
    counters = []
    bursts = []
    names = count()

    def schedule(node):
        kind, delay, children = node
        name = next(names)

        def fire(_event=None):
            log.append((name, kind, env.now))
            for child in children:
                schedule(child)

        if kind == "call":
            env.call_in(delay, fire)
        elif kind == "timeout":
            env.timeout(delay).callbacks.append(fire)
        elif kind == "succeed":
            event = env.event()
            event.callbacks.append(fire)
            event.succeed(delay=delay)
        elif kind == "fail":
            event = env.event()
            event.callbacks.append(lambda ev: (ev.defuse(), fire()))
            event.fail(RuntimeError(name), delay=delay)
        elif kind == "raise":
            event = env.event()
            event.callbacks.append(fire)
            event.fail(Abort(name), delay=delay)
        elif kind == "zcancel":
            # The canceller is pushed first, so it pops while the timer's
            # entry is still pending (in the lane at a zero delay).
            doomed = []
            env.call_in(0.0, lambda: (doomed[0].cancel(), fire()))
            doomed.append(env.timeout(delay))
            doomed[0].callbacks.append(lambda _ev: log.append((name, "BUG", env.now)))
        elif kind == "icancel":
            # A burst one step later, cancelled in bulk by a callback:
            # the run loop is mid-run when the compaction check runs.
            doomed = [env.timeout(delay + 1.0) for _ in range(BURST)]
            for timer in doomed:
                timer.callbacks.append(lambda _ev: log.append((name, "BUG", env.now)))
            env.call_in(delay, lambda: ([t.cancel() for t in doomed], fire()))
        else:  # burst: the outer loop cancels these in bulk unless they pop
            for k in range(BURST):
                timer = env.timeout(delay)
                timer.callbacks.append(lambda _ev, k=k: log.append((name, "burst", k, env.now)))
                bursts.append(timer)
            fire()

    def checkpoint(tag):
        log.append((tag, env.now))
        counters.append(
            (env._seq, env.cancelled_events, env.stale_timers, env._dead_entries)
        )

    for root in program:
        schedule(root)
    for op, arg in ops:
        try:
            if op == "step":
                env.step()
            elif op == "peek":
                log.append(("peek", env.peek()))
            elif op == "until":
                env.run(until=env.now + arg)
            else:  # cancel every burst timer still pending
                for timer in bursts:
                    timer.cancel()
                bursts.clear()
        except Abort as exc:
            log.append(("abort", exc.args[0], env.now))
        except SimulationError:
            log.append(("empty", env.now))
        checkpoint(op)
    while True:
        try:
            env.run()
            break
        except Abort as exc:
            log.append(("abort", exc.args[0], env.now))
    checkpoint("end")
    assert not any(entry[1] == "BUG" for entry in log)
    return log, counters


def assert_matches_reference(program, ops, initial_time=0.0):
    """The engine (with the lane) and the plain-heap reference agree on
    the pop log, the clock, and ``seq`` and the churn counters at every
    checkpoint."""
    log, counters = execute(program, ops, Environment, initial_time)
    ref_log, ref_counters = execute(program, ops, ReferenceEnvironment, initial_time)
    assert log == ref_log
    assert counters == ref_counters
    assert counters[-1][3] == 0  # every dead entry swept exactly once
    return log, counters


# -- the differential --------------------------------------------------------


@st.composite
def programs(draw, size=60):
    """A forest of scheduling nodes ``(kind, delay, children)``."""
    budget = [size]

    def node(depth):
        budget[0] -= 1
        kind = draw(st.sampled_from(KINDS))
        n_children = draw(st.integers(0, 3)) if depth < 6 else 0
        children = []
        for _ in range(n_children):
            if budget[0] <= 0:
                break
            children.append(node(depth + 1))
        return (kind, draw(st.sampled_from(DELAYS)), tuple(children))

    roots = []
    for _ in range(draw(st.integers(1, 6))):
        if budget[0] <= 0:
            break
        roots.append(node(0))
    return roots


outer_ops = st.lists(
    st.one_of(
        st.tuples(st.just("step"), st.just(None)),
        st.tuples(st.just("peek"), st.just(None)),
        st.tuples(st.just("cancel"), st.just(None)),
        st.tuples(st.just("until"), st.sampled_from([0.0, TINY, 0.5, 1.0, 2.5, 4.0])),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(programs(), outer_ops, st.sampled_from([0.0, 1e12]))
def test_lane_matches_plain_heap_reference(program, ops, initial_time):
    assert_matches_reference(program, ops, initial_time)


def _run_schedule(make_env, seed, n_timers=600, n_cancel=180, n_procs=8):
    """Run a randomized timer/cancel/process schedule; return the trace."""
    rng = random.Random(seed)
    env = make_env()
    order = []

    timers = []
    for i in range(n_timers):
        delay = rng.choice([0.0, rng.uniform(0.0, 50.0), rng.uniform(0.0, 5000.0)])
        ev = env.timeout(delay, value=i)
        ev.callbacks.append(lambda e: order.append(("t", e._value, env.now)))
        timers.append(ev)
    for ev in rng.sample(timers, n_cancel):
        ev.cancel()

    def proc(pid, hops):
        for h in range(hops):
            yield env.timeout(rng.uniform(0.0, 100.0))
            order.append(("p", pid, h, env.now))

    # Hop counts are drawn before the run; the in-run delay draws depend
    # on the pop order, which is exactly what must match.
    for pid in range(n_procs):
        env.process(proc(pid, rng.randint(1, 12)))
    env.run()
    return order, env.now, env._seq, env.stale_timers, env.cancelled_events


@pytest.mark.parametrize("seed", range(8))
def test_randomized_schedule_matches_reference(seed):
    assert _run_schedule(Environment, seed) == _run_schedule(ReferenceEnvironment, seed)


# -- named schedules: one per way to get the lane wrong ----------------------


def test_rounded_delay_joins_the_lane():
    # At 1e12 a 1e-5 delay rounds away: the entry is due now and pops
    # between the zero-delay entries pushed around it.  Routed on
    # ``delay == 0`` it would sit in the heap at now and pop first.
    program = [("call", 0.0, (("call", 0.0, ()), ("call", TINY, ()), ("call", 0.0, ())))]
    log, _ = assert_matches_reference(program, [], initial_time=1e12)
    assert [entry[0] for entry in log[:4]] == [0, 1, 2, 3]
    assert {entry[2] for entry in log[:4]} == {1e12}


def test_heap_entries_due_now_precede_the_lane():
    # Both roots (0 and 1) are heap entries at 1.0; the first one's
    # zero-delay child (2) is pushed at 1.0, after the second root, so
    # it pops last.
    program = [("timeout", 1.0, (("call", 0.0, ()),)), ("call", 1.0, ())]
    log, _ = assert_matches_reference(program, [])
    assert [entry[0] for entry in log[:3]] == [0, 1, 2]


def test_compaction_sweeps_dead_lane_entries():
    # The burst parks BURST zero-delay timers in the lane and step()
    # pops the first; cancelling the rest from the outer loop compacts the
    # calendar with the lane full of dead entries, at the cancel that
    # crosses the threshold.
    program = [("burst", 0.0, (("call", 0.0, ()),)), ("call", 3.0, ())]
    ops = [("step", None), ("cancel", None), ("peek", None), ("step", None)]
    log, counters = assert_matches_reference(program, ops)
    swept = CALENDAR_COMPACT_THRESHOLD + 1
    assert counters[1][2:] == (swept, BURST - 1 - swept)  # stale, still dead
    assert ("peek", 0.0) in log


@pytest.mark.parametrize("make_env", ENGINES)
def test_peek_reads_heap_entries_due_now_before_the_lane(make_env):
    # After step(), a live heap entry is due now and a cancelled timer
    # sits in the lane behind it: peek() stops at the live one and
    # leaves the dead one for later, like the (when, seq) total order.
    env = make_env()
    env.timeout(1.0).callbacks.append(lambda _ev: env.timeout(0.0).cancel())
    env.timeout(1.0)
    env.step()
    assert env.peek() == 1.0
    assert env.stale_timers == 0 and env._dead_entries == 1
    env.run()
    assert env.stale_timers == 1 and env._dead_entries == 0


@pytest.mark.parametrize("make_env", ENGINES)
def test_cancelled_zero_delay_timer_never_fires(make_env):
    env = make_env()
    fired = []
    timer = env.timeout(0.0)
    timer.callbacks.append(lambda _ev: fired.append("timer"))
    env.call_in(0.0, lambda: fired.append("call"))
    timer.cancel()
    assert env.peek() == 0.0  # the bare entry behind it is live
    env.run()
    assert fired == ["call"]
    assert env.stale_timers == 1 and env._dead_entries == 0


@pytest.mark.parametrize("make_env", ENGINES)
def test_step_drains_the_lane_before_moving_the_clock(make_env):
    env = make_env()
    fired = []
    env.call_in(1.0, lambda: (fired.append(("a", env.now)), env.call_in(0.0, later)))
    env.call_in(1.0, lambda: fired.append(("b", env.now)))
    env.call_in(2.0, lambda: fired.append(("c", env.now)))

    def later():
        fired.append(("later", env.now))

    for _ in range(4):
        env.step()
    assert fired == [("a", 1.0), ("b", 1.0), ("later", 1.0), ("c", 2.0)]
    with pytest.raises(SimulationError):
        env.step()


def test_zero_delay_entries_skip_the_heap():
    env = Environment()
    env.call_in(0.0, lambda: None)
    env.timeout(0.0)
    env.event().succeed()
    env.timeout(1.0)
    assert len(env._lane) == 3 and len(env._calendar) == 1
    assert env._seq == 4  # a lane entry still takes its seq
    env.run()
    assert not env._lane and not env._calendar
