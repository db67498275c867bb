"""Timing-wheel calendar: unit, differential, timeout and backend tests.

The load-bearing property is *order identity*: for any schedule —
including cancellations and same-timestamp ties — the wheel backend
must process events in exactly the heap backend's order.  The
differential tests drive both backends over randomized schedules and
compare the full processing order; the unit tests pin the wheel's
internal mechanics (calibration, cascades, compaction, the same-slot
insort during a drain).
"""

import random

import pytest

import repro.sim.calendar as calendar_mod
import repro.sim.engine as engine_mod
from repro.sim import (
    AUTO_PROMOTE_THRESHOLD,
    CALENDAR_BACKENDS,
    Environment,
    SimulationError,
    TimingWheel,
    default_calendar,
    set_default_calendar,
)
from repro.sim.engine import CALENDAR_COMPACT_THRESHOLD

BACKENDS = list(CALENDAR_BACKENDS)


# -- TimingWheel unit tests -------------------------------------------------


def entry(when, prio=1, seq=0, tag=None):
    return (when, prio, seq, tag)


def drain(wheel):
    out = []
    while True:
        popped = wheel.pop_due(float("inf"))
        if popped is None:
            return out
        out.append(popped)


def test_wheel_pops_in_heap_order_with_explicit_tick():
    wheel = TimingWheel(tick=1.0)
    entries = [entry(5.0, seq=1), entry(2.0, seq=2), entry(5.0, 0, 3), entry(2.0, seq=0)]
    for e in entries:
        wheel.push(e)
    assert len(wheel) == 4
    assert drain(wheel) == sorted(entries, key=lambda e: e[:3])
    assert len(wheel) == 0


def test_wheel_fifo_tie_break_within_one_slot():
    wheel = TimingWheel(tick=100.0)  # everything lands in one bucket
    entries = [entry(1.0, seq=s) for s in (3, 1, 2, 0)]
    for e in entries:
        wheel.push(e)
    assert [e[2] for e in drain(wheel)] == [0, 1, 2, 3]


def test_wheel_calibrates_on_first_pop():
    wheel = TimingWheel()
    for s in range(100):
        wheel.push(entry(float(s), seq=s))
    assert wheel.tick is None  # below CALIBRATE_AT: still buffering
    first = wheel.pop_due(float("inf"))
    assert first == entry(0.0, seq=0)
    assert wheel.tick is not None and wheel.tick > 0


def test_wheel_calibrates_at_buffer_threshold():
    wheel = TimingWheel()
    n = calendar_mod.CALIBRATE_AT
    for s in range(n):
        wheel.push(entry(float(s), seq=s))
    assert wheel.tick is not None
    # Pushes after calibration bin directly and stay ordered.
    wheel.push(entry(0.5, seq=n))
    got = drain(wheel)
    assert len(got) == n + 1
    assert got == sorted(got, key=lambda e: e[:3])


def test_wheel_empty_pop_and_peek():
    wheel = TimingWheel()
    assert wheel.pop_due(float("inf")) is None
    assert wheel.peek() is None
    assert len(wheel) == 0


def test_wheel_pop_due_respects_limit():
    wheel = TimingWheel(tick=1.0)
    wheel.push(entry(10.0))
    assert wheel.pop_due(5.0) is None
    assert len(wheel) == 1  # not consumed
    assert wheel.pop_due(10.0) == entry(10.0)
    assert len(wheel) == 0


def test_wheel_peek_does_not_consume():
    wheel = TimingWheel(tick=1.0)
    wheel.push(entry(3.0))
    assert wheel.peek() == entry(3.0)
    assert wheel.peek() == entry(3.0)
    assert len(wheel) == 1
    assert wheel.pop_due(float("inf")) == entry(3.0)


def test_wheel_same_slot_push_during_drain():
    # Pushing into the bucket currently being drained must land at the
    # sorted position at-or-after the cursor (the delay-zero / same-tick
    # re-arm case).
    wheel = TimingWheel(tick=1000.0)  # one bucket for everything
    for s in range(4):
        wheel.push(entry(float(s), seq=s))
    got = [wheel.pop_due(float("inf")), wheel.pop_due(float("inf"))]
    # Mid-drain: insert between the remaining entries (2.0 and 3.0).
    wheel.push(entry(2.5, seq=9))
    got.extend(drain(wheel))
    assert [e[0] for e in got] == [0.0, 1.0, 2.0, 2.5, 3.0]


def test_wheel_coarse_cascade():
    # With tick=1.0, slots >= SLOTS_PER_LEVEL past the base go coarse.
    wheel = TimingWheel(tick=1.0)
    span = calendar_mod.SLOTS_PER_LEVEL
    times = [1.0, 2.0, float(span + 5), float(span + 3), float(3 * span + 1)]
    for s, t in enumerate(times):
        wheel.push(entry(t, seq=s))
    assert wheel._coarse  # something actually routed to level 1
    got = [e[0] for e in drain(wheel)]
    assert got == sorted(times)


def test_wheel_far_overflow_rebins():
    wheel = TimingWheel(tick=1.0)
    span = calendar_mod.SLOTS_PER_LEVEL
    far_time = float(span) * span * 2  # beyond the coarse horizon
    wheel.push(entry(1.0, seq=0))
    wheel.push(entry(far_time, seq=1))
    assert wheel._far
    got = [e[0] for e in drain(wheel)]
    assert got == [1.0, far_time]


def test_wheel_compact_drops_dead_across_levels():
    wheel = TimingWheel(tick=1.0)
    span = calendar_mod.SLOTS_PER_LEVEL
    live = [entry(2.0, seq=0, tag="live"), entry(float(span + 2), seq=2, tag="live")]
    dead = [
        entry(3.0, seq=1, tag="dead"),
        entry(float(span + 7), seq=3, tag="dead"),
        entry(float(span) * span * 3, seq=4, tag="dead"),
    ]
    for e in live + dead:
        wheel.push(e)
    removed = wheel.compact(lambda e: e[3] == "dead")
    assert removed == len(dead)
    assert len(wheel) == len(live)
    assert drain(wheel) == sorted(live, key=lambda e: e[:3])


def test_wheel_compact_uncalibrated_buffer():
    wheel = TimingWheel()
    wheel.push(entry(1.0, tag="live"))
    wheel.push(entry(2.0, tag="dead"))
    assert wheel.compact(lambda e: e[3] == "dead") == 1
    assert [e[0] for e in drain(wheel)] == [1.0]


def test_wheel_compact_preserves_drain_cursor():
    wheel = TimingWheel(tick=1000.0)
    for s in range(6):
        wheel.push(entry(float(s), seq=s, tag="dead" if s in (3, 4) else "live"))
    assert wheel.pop_due(float("inf"))[0] == 0.0  # start draining the bucket
    removed = wheel.compact(lambda e: e[3] == "dead")
    assert removed == 2
    assert [e[0] for e in drain(wheel)] == [1.0, 2.0, 5.0]


def test_wheel_rejects_bad_params():
    with pytest.raises(ValueError):
        TimingWheel(tick=0.0)
    with pytest.raises(ValueError):
        TimingWheel(tick=-1.0)
    with pytest.raises(ValueError):
        TimingWheel(target_occupancy=0.0)


# -- backend selection -----------------------------------------------------


def test_default_backend_is_heap():
    assert default_calendar() == "heap"
    env = Environment()
    assert env.calendar_backend == "heap"
    assert not env.using_wheel


def test_set_default_calendar_round_trip():
    try:
        set_default_calendar("wheel")
        assert default_calendar() == "wheel"
        env = Environment()
        assert env.calendar_backend == "wheel"
        assert env.using_wheel
    finally:
        set_default_calendar("heap")
    assert default_calendar() == "heap"


def test_set_default_calendar_rejects_unknown():
    with pytest.raises(ValueError, match="unknown calendar backend"):
        set_default_calendar("btree")
    assert default_calendar() == "heap"


def test_environment_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown calendar backend"):
        Environment(calendar="btree")


def test_explicit_backend_overrides_default():
    env = Environment(calendar="wheel")
    assert env.calendar_backend == "wheel"
    assert env.using_wheel


# -- differential: wheel must replay the heap's exact order ----------------


def _run_schedule(backend, seed, n_timers=600, n_cancel=180, n_procs=8):
    """Run a randomized timer/cancel/process schedule; return the trace."""
    rng = random.Random(seed)
    env = Environment(calendar=backend)
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

    # Per-process hop counts drawn before the run so both backends see
    # identical generator behavior (env-time draws would otherwise
    # depend on interleaving — which is exactly what must match anyway).
    for pid in range(n_procs):
        env.process(proc(pid, rng.randint(1, 12)))
    env.run()
    return order, env.now, env.stale_timers, env.cancelled_events


@pytest.mark.parametrize("seed", range(8))
def test_wheel_matches_heap_order_randomized(seed):
    heap_trace = _run_schedule("heap", seed)
    wheel_trace = _run_schedule("wheel", seed)
    assert wheel_trace == heap_trace


def test_auto_matches_heap_order_after_promotion(monkeypatch):
    monkeypatch.setattr(engine_mod, "AUTO_PROMOTE_THRESHOLD", 64)
    heap_trace = _run_schedule("heap", 1234)
    auto_trace = _run_schedule("auto", 1234)
    assert auto_trace == heap_trace


def test_wheel_matches_heap_under_run_until():
    def run(backend):
        env = Environment(calendar=backend)
        hits = []
        for i in range(200):
            env.timeout(float(i), value=i).callbacks.append(
                lambda e: hits.append(e._value)
            )
        env.run(until=99.5)
        return hits, env.now

    assert run("wheel") == run("heap")


def test_wheel_run_until_with_cancelled_far_head():
    # A cancelled entry beyond `until` must still let the clock settle
    # at `until` without firing (mirrors the heap head-check contract).
    env = Environment(calendar="wheel")
    ev = env.timeout(100.0)
    env.timeout(1.0)
    ev.cancel()
    env.run(until=50.0)
    assert env.now == 50.0
    assert len(env._wheel) == 1  # cancelled entry still parked


# -- auto promotion --------------------------------------------------------


def test_auto_promotes_past_threshold(monkeypatch):
    monkeypatch.setattr(engine_mod, "AUTO_PROMOTE_THRESHOLD", 32)
    env = Environment(calendar="auto")
    assert not env.using_wheel
    for i in range(40):
        env.timeout(float(i))
    assert env.using_wheel  # promoted mid-scheduling
    assert env._calendar == []  # heap emptied in place
    assert len(env._wheel) == 40
    env.run()
    assert env.now == 39.0


def test_auto_promotion_drops_cancelled_as_stale(monkeypatch):
    monkeypatch.setattr(engine_mod, "AUTO_PROMOTE_THRESHOLD", 32)
    env = Environment(calendar="auto")
    doomed = [env.timeout(float(i)) for i in range(20)]
    for ev in doomed[:10]:
        ev.cancel()
    for i in range(20):  # push past the threshold -> promote
        env.timeout(100.0 + i)
    assert env.using_wheel
    assert env.stale_timers == 10
    assert len(env._wheel) == 30
    env.run()
    assert env.now == 119.0


def test_auto_stays_on_heap_below_threshold():
    env = Environment(calendar="auto")
    for i in range(100):  # far below the real threshold
        env.timeout(float(i))
    assert not env.using_wheel
    env.run()
    assert env.now == 99.0
    assert env.calendar_backend == "auto"


def test_auto_promotes_mid_run(monkeypatch):
    # A process that fans out past the threshold *while running* must
    # flip the backend and keep draining seamlessly.
    monkeypatch.setattr(engine_mod, "AUTO_PROMOTE_THRESHOLD", 32)
    env = Environment(calendar="auto")
    fired = []

    def fanout(env):
        yield env.timeout(1.0)
        for i in range(64):
            env.timeout(2.0 + i, value=i).callbacks.append(
                lambda e: fired.append(e._value)
            )

    env.process(fanout(env))
    env.run()
    assert env.using_wheel
    assert fired == list(range(64))
    assert env.now == 1.0 + 2.0 + 63.0  # fan-out armed at t=1


# -- timeout values --------------------------------------------------------


def test_timeout_pool_reuses_identity_and_resets_value():
    env = Environment()
    seen = []

    def proc(env):
        v = yield env.timeout(1.0, value="a")
        seen.append(v)
        v = yield env.timeout(1.0)
        seen.append(v)

    env.process(proc(env))
    env.run()
    assert seen == ["a", None]  # each timeout carries its own value


def test_pooled_condition_timeouts_not_recycled_while_held():
    # all_of holds its source events in its value dict; their values
    # must still be there when it fires.
    env = Environment()
    results = []

    def proc(env):
        t1 = env.timeout(1.0, value="x")
        t2 = env.timeout(2.0, value="y")
        got = yield env.all_of([t1, t2])
        results.append(sorted(got.values()))

    env.process(proc(env))
    env.run()
    assert results == [["x", "y"]]


# -- S4: cancel x compaction x run(until=), both backends ------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_compaction_threshold(backend):
    env = Environment(calendar=backend)
    live = [env.timeout(10000.0 + i) for i in range(200)]
    doomed = [env.timeout(float(i + 1)) for i in range(CALENDAR_COMPACT_THRESHOLD + 1)]
    # Cancel up to the threshold: entries stay parked (dead <= threshold).
    for ev in doomed[:-1]:
        ev.cancel()
    assert env._dead_entries == CALENDAR_COMPACT_THRESHOLD
    assert env.stale_timers == 0
    # One more cancel crosses it, but dead*2 <= pending holds (200 live),
    # so compaction still must not trigger.
    doomed[-1].cancel()
    assert env.stale_timers == 0
    # Cancel live entries until cancelled entries dominate -> compacts
    # (possibly more than once as the calendar shrinks).
    for ev in live[:150]:
        ev.cancel()
    assert env.stale_timers > CALENDAR_COMPACT_THRESHOLD
    assert env._dead_entries < CALENDAR_COMPACT_THRESHOLD
    env.run()
    assert env.now == 10000.0 + 199  # survivors live[150:] all fire


@pytest.mark.parametrize("backend", BACKENDS)
def test_cancel_then_advance_then_run(backend):
    env = Environment(calendar=backend)
    order = []
    env.timeout(5.0, value="early").callbacks.append(lambda e: order.append(e._value))
    doomed = env.timeout(7.0)
    late = env.timeout(500.0, value="late")
    late.callbacks.append(lambda e: order.append(e._value))
    doomed.cancel()
    env.run(until=10.0)
    assert order == ["early"]
    assert env.now == 10.0
    assert env.peek() == 500.0  # the cancelled 7.0 entry never surfaces
    env.run(until=499.0)
    assert order == ["early"]
    assert env.now == 499.0
    env.run()
    assert order == ["early", "late"]
    assert env.now == 500.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_peek_and_step_consistency(backend):
    env = Environment(calendar=backend)
    env.timeout(3.0)
    doomed = env.timeout(1.0)
    doomed.cancel()
    assert env.peek() == 3.0  # cancelled head discarded without advancing
    assert env.now == 0.0
    env.step()
    assert env.now == 3.0
    assert env.peek() == float("inf")
    with pytest.raises(SimulationError, match="empty calendar"):
        env.step()


def test_wheel_massive_schedule_drains_in_order():
    # A sanity-scale wheel run (beyond CALIBRATE_AT so self-calibration
    # engages) must drain fully ordered.
    env = Environment(calendar="wheel")
    rng = random.Random(7)
    n = 20000
    times = sorted(rng.uniform(0.0, 1e6) for _ in range(n))
    order = []
    shuffled = times[:]
    rng.shuffle(shuffled)
    for t in shuffled:
        env.timeout(t, value=t).callbacks.append(lambda e: order.append(e._value))
    env.run()
    assert order == times
    assert env.now == times[-1]
