"""Tests for first-class timer cancellation in the engine.

Pins the cancellation contract documented in ``docs/PERFORMANCE.md``:
cancelled events never run their callbacks, their calendar entries are
discarded lazily (bulk-compacted past the threshold), the clock never
advances because of them — under ``peek``, ``step`` and ``run(until=)``
alike — and the churn is observable through the
``sim.cancelled_events`` / ``sim.stale_timers`` counter pair.  Timeout
values ride along at the end.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.sim import Environment, SimulationError
from repro.sim.engine import CALENDAR_COMPACT_THRESHOLD


class TestCancelSemantics:
    def test_cancelled_timer_callbacks_never_run(self):
        env = Environment()
        fired = []
        timer = env.timeout(5.0)
        timer.callbacks.append(lambda ev: fired.append(env.now))
        assert timer.cancel() is True
        env.run()
        assert fired == []
        assert timer.cancelled

    def test_cancelled_entry_does_not_advance_clock(self):
        env = Environment()
        env.timeout(100.0).cancel()
        env.timeout(3.0)
        env.run()
        assert env.now == 3.0  # the cancelled 100 ns entry never happened

    def test_cancel_is_idempotent_and_counts_once(self):
        env = Environment()
        timer = env.timeout(1.0)
        assert timer.cancel() is True
        assert timer.cancel() is False
        assert env.cancelled_events == 1

    def test_cancel_after_processed_is_noop(self):
        env = Environment()
        timer = env.timeout(1.0)
        env.run()
        assert timer.processed
        assert timer.cancel() is False
        assert not timer.cancelled

    def test_succeed_after_cancel_raises(self):
        env = Environment()
        event = env.event()
        event.cancel()
        with pytest.raises(SimulationError):
            event.succeed()
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("boom"))

    def test_process_cannot_be_cancelled(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        process = env.process(proc())
        with pytest.raises(SimulationError):
            process.cancel()
        env.run()

    def test_cancelled_member_never_reaches_condition(self):
        env = Environment()
        slow = env.timeout(10.0)
        fast = env.timeout(1.0)
        condition = env.all_of([fast, slow])
        slow.cancel()
        env.run()
        # The condition never completes (its cancelled member is gone),
        # but it also must not crash or collect the cancelled event.
        assert not condition.triggered

    def test_run_until_with_cancelled_top(self):
        env = Environment()
        env.timeout(50.0).cancel()
        env.run(until=10.0)
        assert env.now == 10.0


class TestCalendarHygiene:
    def test_peek_skips_cancelled_entries(self):
        env = Environment()
        early = env.timeout(1.0)
        env.timeout(2.0)
        early.cancel()
        assert env.peek() == 2.0

    def test_step_skips_cancelled_and_processes_next_live(self):
        env = Environment()
        fired = []
        first = env.timeout(1.0)
        second = env.timeout(2.0)
        second.callbacks.append(lambda ev: fired.append(env.now))
        first.cancel()
        env.step()
        assert fired == [2.0]

    def test_step_raises_when_only_cancelled_entries_remain(self):
        env = Environment()
        env.timeout(1.0).cancel()
        with pytest.raises(SimulationError):
            env.step()

    def test_compaction_sweeps_dominating_dead_entries(self):
        env = Environment()
        keep = env.timeout(1e9)
        timers = [env.timeout(float(i + 1)) for i in range(CALENDAR_COMPACT_THRESHOLD * 3)]
        for timer in timers:
            timer.cancel()
        # The bulk of the calendar was cancelled -> compaction kicked in.
        assert len(env._calendar) < len(timers)
        assert env.stale_timers > 0
        assert not keep.cancelled

    def test_compaction_preserves_live_schedule(self):
        env = Environment()
        fired = []
        for i in range(CALENDAR_COMPACT_THRESHOLD * 3):
            env.timeout(float(i + 1)).cancel()
        live = env.timeout(7.5)
        live.callbacks.append(lambda ev: fired.append(env.now))
        # Events scheduled after a compaction must still be processed
        # (the compaction rebuilds the calendar list in place).
        late = env.timeout(9.0)
        late.callbacks.append(lambda ev: fired.append(env.now))
        env.run()
        assert fired == [7.5, 9.0]

    def test_peek_and_step_consistency(self):
        env = Environment()
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


class TestCompactionThreshold:
    """Exact boundary of the lazy-sweep trigger.

    Compaction runs only when BOTH hold after a cancel: the dead count
    strictly exceeds ``CALENDAR_COMPACT_THRESHOLD`` (64) AND dead
    entries make up more than half the calendar.  These tests pin the
    off-by-one on each condition.
    """

    @staticmethod
    def _cancel_n(env, timers, n):
        for timer in timers[:n]:
            timer.cancel()

    def test_threshold_cancels_do_not_compact(self):
        env = Environment()
        timers = [env.timeout(float(i + 1)) for i in range(100)]
        self._cancel_n(env, timers, CALENDAR_COMPACT_THRESHOLD)
        # 64 > 64 is false: every dead entry is still in the heap.
        assert env._dead_entries == CALENDAR_COMPACT_THRESHOLD
        assert len(env._calendar) == 100
        assert env.stale_timers == 0

    def test_one_past_threshold_compacts(self):
        env = Environment()
        timers = [env.timeout(float(i + 1)) for i in range(100)]
        self._cancel_n(env, timers, CALENDAR_COMPACT_THRESHOLD + 1)
        # 65 > 64 and 130 > 100: the sweep fires and zeroes the debt.
        assert env.stale_timers == CALENDAR_COMPACT_THRESHOLD + 1
        assert len(env._calendar) == 100 - (CALENDAR_COMPACT_THRESHOLD + 1)
        assert env._dead_entries == 0

    def test_majority_condition_defers_compaction(self):
        env = Environment()
        timers = [env.timeout(float(i + 1)) for i in range(200)]
        self._cancel_n(env, timers, CALENDAR_COMPACT_THRESHOLD + 1)
        # Past the count threshold, but 130 > 200 is false: dead entries
        # are a minority, so the sweep waits.
        assert env._dead_entries == CALENDAR_COMPACT_THRESHOLD + 1
        assert len(env._calendar) == 200
        assert env.stale_timers == 0

    def test_exact_half_does_not_compact(self):
        env = Environment()
        n = 2 * (CALENDAR_COMPACT_THRESHOLD + 1)  # 130 entries
        timers = [env.timeout(float(i + 1)) for i in range(n)]
        self._cancel_n(env, timers, CALENDAR_COMPACT_THRESHOLD + 1)
        # Exactly half dead (130 > 130 false): strict majority required.
        assert env._dead_entries == CALENDAR_COMPACT_THRESHOLD + 1
        assert len(env._calendar) == n
        timers[CALENDAR_COMPACT_THRESHOLD + 1].cancel()  # one past half
        assert env._dead_entries == 0
        assert env.stale_timers == CALENDAR_COMPACT_THRESHOLD + 2

    def test_in_run_cancel_sees_exact_pending_count(self):
        """A cancel from a callback mid-run: 100 timers at t=1, the last
        of which cancels 70 timers at t=1000.  The 99 popped entries no
        longer count as pending, so the 65th cancel sweeps."""
        env = Environment()
        far = [env.timeout(1000.0) for _ in range(70)]
        near = [env.timeout(1.0) for _ in range(100)]
        near[-1].callbacks.append(lambda _ev: [timer.cancel() for timer in far])
        env.run(until=500.0)
        assert env.stale_timers == CALENDAR_COMPACT_THRESHOLD + 1  # 65 swept
        assert env.metrics.counter("sim.stale_timers").value == 65
        env.run()
        assert env.stale_timers == 70
        assert env._dead_entries == 0

    def test_compacted_calendar_still_runs_survivors(self):
        env = Environment()
        fired = []
        timers = [env.timeout(float(i + 1)) for i in range(100)]
        timers[-1].callbacks.append(lambda ev: fired.append(env.now))
        self._cancel_n(env, timers, CALENDAR_COMPACT_THRESHOLD + 1)
        env.run()
        assert fired == [100.0]
        assert env.now == 100.0


    def test_cancel_compaction_threshold(self):
        env = Environment()
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

    def test_cancel_then_advance_then_run(self):
        env = Environment()
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


class TestChurnCounters:
    def test_counters_flush_to_metrics_registry(self):
        registry = MetricsRegistry()
        env = Environment(metrics=registry)
        env.timeout(1.0).cancel()
        env.timeout(2.0)
        env.run()
        assert registry.counter("sim.cancelled_events").value == 1
        assert registry.counter("sim.stale_timers").value == 1
        assert env.cancelled_events == 1
        assert env.stale_timers == 1

    def test_flush_is_delta_based_across_runs(self):
        registry = MetricsRegistry()
        env = Environment(metrics=registry)
        env.timeout(1.0).cancel()
        env.run()
        env.timeout(2.0).cancel()
        env.timeout(3.0)
        env.run()
        assert registry.counter("sim.cancelled_events").value == 2
        assert registry.counter("sim.stale_timers").value == 2

    def test_no_metrics_rows_without_churn(self):
        registry = MetricsRegistry()
        env = Environment(metrics=registry)
        env.timeout(1.0)
        env.run()
        names = {name for name, _metric in registry}
        assert "sim.cancelled_events" not in names
        assert "sim.stale_timers" not in names

    def test_fair_share_link_reports_churn(self):
        from repro.mem.link import FairShareLink

        registry = MetricsRegistry()
        env = Environment(metrics=registry)
        link = FairShareLink(env, bandwidth=10.0)

        def proc(delay, nbytes):
            yield env.timeout(delay)
            yield link.transfer(nbytes)

        for i in range(8):
            env.process(proc(float(i), 100.0 + i))
        env.run()
        # Every join/leave re-armed the single wake timer by cancelling
        # the stale one; the churn is observable, and no version-checked
        # zombie timers survive in the calendar.
        assert env.cancelled_events > 0
        assert registry.counter("sim.cancelled_events").value == env.cancelled_events
        assert env._calendar == []


class TestTimeoutValues:
    def test_each_timeout_carries_its_own_value(self):
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

    def test_condition_keeps_its_timeouts_values(self):
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
