"""Unit tests for the fair-share bandwidth link model."""

import importlib.util
import math
import random
import sys
import zlib
from pathlib import Path

import pytest

from repro.mem import MemorySystem
from repro.mem.link import FairShareLink, SerialLink
from repro.sim import Environment


def _load_legacy_link():
    """Import the verbatim pre-virtual-time link embedded in the bench."""
    path = Path(__file__).resolve().parents[2] / "scripts" / "bench_link.py"
    spec = importlib.util.spec_from_file_location("bench_link", path)
    module = importlib.util.module_from_spec(spec)
    # The bench imports its shared harness (scripts/_bench_common.py)
    # as a sibling module, so scripts/ must be importable while it loads.
    sys.path.insert(0, str(path.parent))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(path.parent))
    return module.LegacyFairShareLink


LegacyFairShareLink = _load_legacy_link()


class TestFairShareLink:
    def test_single_flow_runs_at_full_bandwidth(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=10.0)  # 10 B/ns
        done = []

        def proc(env):
            yield link.transfer(1000.0)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [pytest.approx(100.0)]

    def test_two_equal_flows_share_evenly(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=10.0)
        done = []

        def proc(env, tag):
            yield link.transfer(1000.0)
            done.append((tag, env.now))

        env.process(proc(env, "a"))
        env.process(proc(env, "b"))
        env.run()
        # Both flows at 5 B/ns -> 200 ns each.
        assert done[0][1] == pytest.approx(200.0)
        assert done[1][1] == pytest.approx(200.0)

    def test_late_joiner_slows_first_flow(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=10.0)
        done = {}

        def first(env):
            yield link.transfer(1000.0)
            done["first"] = env.now

        def second(env):
            yield env.timeout(50.0)
            yield link.transfer(250.0)
            done["second"] = env.now

        env.process(first(env))
        env.process(second(env))
        env.run()
        # First: 500 B in 50ns solo, then 5 B/ns shared.
        # Second finishes 250 B at 5 B/ns in 50 ns (at t=100).
        assert done["second"] == pytest.approx(100.0)
        # First then has 250 B left at 10 B/ns -> t = 125.
        assert done["first"] == pytest.approx(125.0)

    def test_zero_byte_transfer_is_instant(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=1.0)
        ev = link.transfer(0.0)
        assert ev.triggered

    def test_negative_transfer_rejected(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=1.0)
        with pytest.raises(ValueError):
            link.transfer(-1.0)

    def test_invalid_bandwidth_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            FairShareLink(env, bandwidth=0.0)

    def test_bytes_completed_accumulates(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=10.0)
        link.transfer(100.0)
        link.transfer(200.0)
        env.run()
        assert link.bytes_completed == pytest.approx(300.0)

    def test_many_flows_aggregate_to_bandwidth(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=8.0)
        done = []

        def proc(env):
            yield link.transfer(800.0)
            done.append(env.now)

        for _ in range(8):
            env.process(proc(env))
        env.run()
        # 8 flows x 800 B = 6400 B at 8 B/ns -> all complete at 800 ns.
        assert all(t == pytest.approx(800.0) for t in done)

    def test_instantaneous_rate(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=12.0)
        assert link.instantaneous_rate() == 12.0
        link.transfer(1e9)
        link.transfer(1e9)
        assert link.instantaneous_rate() == 6.0


class TestWeightedFairShare:
    def test_two_to_one_weight_ratio(self):
        # B=9, 900 B each at weights 2:1 -> rates 6 and 3; the heavy flow
        # finishes at 150, then the light one drains its 450 B at 9 B/ns.
        env = Environment()
        link = FairShareLink(env, bandwidth=9.0)
        done = {}

        def proc(tag, weight):
            yield link.transfer(900.0, weight=weight)
            done[tag] = env.now

        env.process(proc("heavy", 2.0))
        env.process(proc("light", 1.0))
        env.run()
        assert done["heavy"] == pytest.approx(150.0)
        assert done["light"] == pytest.approx(200.0)

    def test_drain_order_follows_virtual_finish_tags(self):
        # Equal sizes, weights 1/2/3: finish tags 600/300/200, so the
        # heaviest flow completes first despite identical join times.
        env = Environment()
        link = FairShareLink(env, bandwidth=6.0)
        order = []
        done = {}

        def proc(tag, weight):
            yield link.transfer(600.0, weight=weight)
            order.append(tag)
            done[tag] = env.now

        for tag, weight in (("w1", 1.0), ("w2", 2.0), ("w3", 3.0)):
            env.process(proc(tag, weight))
        env.run()
        assert order == ["w3", "w2", "w1"]
        assert done["w3"] == pytest.approx(200.0)
        assert done["w2"] == pytest.approx(250.0)
        assert done["w1"] == pytest.approx(300.0)

    def test_uniform_weight_cap_interaction(self):
        # Uniform weights under a cap stay on the virtual-time fast
        # path: both flows pinned at 4 B/ns, and the survivor stays
        # capped even once it is alone on the link.
        env = Environment()
        link = FairShareLink(env, bandwidth=10.0, per_flow_cap=4.0)
        done = {}

        def proc(tag, nbytes):
            yield link.transfer(nbytes)
            done[tag] = env.now

        env.process(proc("short", 400.0))
        env.process(proc("long", 800.0))
        env.run()
        assert done["short"] == pytest.approx(100.0)
        assert done["long"] == pytest.approx(200.0)
        assert link._wf_flows is None  # never left the fast path


class TestWaterFilling:
    def test_cap_surplus_redistributed_to_light_flow(self):
        # B=10, cap=6, weights 3:1.  Proportional shares would be
        # 7.5/2.5; the heavy flow is clamped to 6 and the light flow
        # water-fills to 4 (not 2.5 as the old proportional-min gave).
        env = Environment()
        link = FairShareLink(env, bandwidth=10.0, per_flow_cap=6.0)
        done = {}

        def proc(tag, weight):
            yield link.transfer(600.0, weight=weight)
            done[tag] = env.now

        env.process(proc("heavy", 3.0))
        env.process(proc("light", 1.0))
        env.run()
        assert done["heavy"] == pytest.approx(100.0)
        # 400 B at 4 B/ns while sharing, then 200 B alone at min(10, 6).
        assert done["light"] == pytest.approx(100.0 + 200.0 / 6.0)

    def test_redistribution_cascades(self):
        # B=12, cap=4.5, weights 4/2/1: the first redistribution round
        # pushes the middle flow over the cap too, so water-filling must
        # iterate.  Final rates 4.5 / 4.5 / 3.0.
        env = Environment()
        link = FairShareLink(env, bandwidth=12.0, per_flow_cap=4.5)
        done = {}

        def proc(tag, nbytes, weight):
            yield link.transfer(nbytes, weight=weight)
            done[tag] = env.now

        env.process(proc("w4", 900.0, 4.0))
        env.process(proc("w2", 450.0, 2.0))
        env.process(proc("w1", 150.0, 1.0))
        env.run()
        assert done["w1"] == pytest.approx(50.0)
        assert done["w2"] == pytest.approx(100.0)
        assert done["w4"] == pytest.approx(200.0)

    def test_returns_to_virtual_time_after_drain(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=10.0, per_flow_cap=6.0)

        def phase_one(weight):
            yield link.transfer(300.0, weight=weight)

        env.process(phase_one(3.0))
        env.process(phase_one(1.0))
        env.run()
        assert link._wf_flows is None  # drained idle -> fast path again
        done = []

        def phase_two():
            yield link.transfer(500.0)
            done.append(env.now)

        start = env.now
        env.process(phase_two())
        env.run()
        assert link._wf_flows is None
        assert done == [pytest.approx(start + 500.0 / 6.0)]


class TestLateClock:
    """A wake that cannot move the clock.

    Far from t=0 one ulp of the clock carries more than the link's 1e-6 B
    residual tolerance at these rates, so rounding ``now + delay`` can
    leave a flow a residual whose own wake rounds back to ``now``.  That
    flow drains at this instant: the link never re-arms a wake at the
    instant it fires, on virtual time or in water-filling.
    """

    SEEDS = range(300)
    #: Steps at one instant before the run counts as spinning.
    SPIN = 10_000

    def _run(self, seed, waterfill):
        rng = random.Random(seed)
        bandwidth = rng.uniform(100.0, 3000.0)
        env = Environment(initial_time=rng.choice([1e9, 1e10, 1e11]))
        link = FairShareLink(env, bandwidth, per_flow_cap=bandwidth / 3 if waterfill else None)
        sizes, done = [], []
        for _ in range(rng.randint(1, 11)):
            size = float(rng.randint(1, 1 << 20))
            weight = rng.choice([0.5, 1.0, 2.0]) if waterfill else 1.0
            sizes.append(size)
            env.call_in(
                rng.choice([0.0, rng.uniform(0.0, 50.0)]),
                lambda size=size, weight=weight: link.transfer(
                    size, weight, callback=lambda: done.append(size)
                ),
            )
        waterfilled = False
        at, same = env.now, 0
        while env.peek() != math.inf:
            env.step()
            waterfilled = waterfilled or link._wf_flows is not None
            if env.now != at:
                at, same = env.now, 0
            else:
                same += 1
                assert same < self.SPIN, f"seed {seed}: wake spins at t={at}"
        assert sorted(done) == sorted(sizes)
        assert link.bytes_completed == sum(sizes)
        assert link.active_flows == 0
        return waterfilled

    def test_virtual_time_terminates(self):
        for seed in self.SEEDS:
            assert not self._run(seed, waterfill=False)

    def test_waterfilling_terminates(self):
        assert sum(self._run(seed, waterfill=True) for seed in self.SEEDS) > 100


class TestBytesAccounting:
    def test_bytes_completed_counted_at_drain_not_submit(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=10.0)
        link.transfer(100.0)
        link.transfer(200.0)
        # Nothing has drained yet: the old implementation wrongly
        # reported 300 completed here.
        assert link.bytes_completed == 0.0
        assert link.bytes_inflight == pytest.approx(300.0)
        env.run(until=10.0)
        # 10 ns at 5 B/ns each -> 100 B drained, none complete.
        assert link.bytes_completed == 0.0
        assert link.bytes_inflight == pytest.approx(200.0)
        env.run()
        assert link.bytes_completed == pytest.approx(300.0)
        assert link.bytes_inflight == 0.0

    def test_bytes_inflight_is_a_pure_read(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=10.0)
        event = link.transfer(100.0)
        env.run(until=5.0)
        # Sampling mid-flight advances nothing: repeated reads agree,
        # the flow is still active, and it completes on time anyway.
        assert link.bytes_inflight == pytest.approx(50.0)
        assert link.bytes_inflight == pytest.approx(50.0)
        assert not event.triggered
        assert link.active_flows == 1
        env.run()
        assert event.triggered
        assert env.now == pytest.approx(10.0)

    def test_bytes_accounting_in_waterfill_mode(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=10.0, per_flow_cap=6.0)
        link.transfer(600.0, weight=3.0)
        link.transfer(600.0, weight=1.0)
        assert link.bytes_inflight == pytest.approx(1200.0)
        env.run(until=50.0)
        # Rates 6 and 4 -> 500 B drained after 50 ns.
        assert link.bytes_inflight == pytest.approx(700.0)
        assert link.bytes_completed == 0.0
        env.run()
        assert link.bytes_completed == pytest.approx(1200.0)


class TestDifferentialOldVsNew:
    """Randomized old-vs-new equivalence (the tentpole's safety net).

    The legacy O(n) link (verbatim from ``scripts/bench_link.py``) and
    the virtual-time link must produce *identical* completion times on
    every schedule where their semantics coincide: mixed weights without
    a cap, any weights with a non-binding cap, and uniform weights with
    a binding cap.  (Mixed weights under a *binding* cap intentionally
    differ — water-filling vs proportional-min — and are pinned by
    ``TestWaterFilling`` instead.)
    """

    SCHEDULES_PER_SCENARIO = 70

    @staticmethod
    def _random_schedule(rng, uniform_weight):
        n_flows = rng.randint(2, 10)
        weight = rng.choice([0.5, 1.0, 2.0, 4.0]) if uniform_weight else None
        schedule = []
        for _ in range(n_flows):
            schedule.append(
                (
                    rng.uniform(0.0, 50.0),  # arrival delay
                    rng.uniform(64.0, 8192.0),  # bytes
                    weight if uniform_weight else rng.choice([0.5, 1.0, 2.0, 4.0]),
                )
            )
        return schedule

    @staticmethod
    def _completion_times(link_cls, schedule, bandwidth, cap):
        env = Environment()
        link = link_cls(env, bandwidth=bandwidth, per_flow_cap=cap)
        finish = {}

        def proc(idx, delay, nbytes, weight):
            yield env.timeout(delay)
            yield link.transfer(nbytes, weight=weight)
            finish[idx] = env.now

        for idx, (delay, nbytes, weight) in enumerate(schedule):
            env.process(proc(idx, delay, nbytes, weight))
        env.run()
        return [finish[idx] for idx in range(len(schedule))]

    @pytest.mark.parametrize(
        "scenario,uniform_weight,cap_kind",
        [
            ("mixed_weights_uncapped", False, None),
            ("uniform_weights_binding_cap", True, "binding"),
            ("mixed_weights_nonbinding_cap", False, "nonbinding"),
        ],
    )
    def test_completion_times_match_legacy(self, scenario, uniform_weight, cap_kind):
        # crc32, not hash(): string hashes are salted per process, and a
        # failing schedule must replay from its scenario name.
        rng = random.Random(zlib.crc32(scenario.encode()))
        for trial in range(self.SCHEDULES_PER_SCENARIO):
            bandwidth = rng.uniform(4.0, 128.0)
            if cap_kind == "binding":
                cap = rng.uniform(bandwidth / 8.0, bandwidth / 1.5)
            elif cap_kind == "nonbinding":
                cap = bandwidth * rng.uniform(1.0, 4.0)
            else:
                cap = None
            schedule = self._random_schedule(rng, uniform_weight)
            old = self._completion_times(LegacyFairShareLink, schedule, bandwidth, cap)
            new = self._completion_times(FairShareLink, schedule, bandwidth, cap)
            for idx, (t_old, t_new) in enumerate(zip(old, new)):
                assert math.isclose(t_old, t_new, rel_tol=1e-9, abs_tol=1e-9), (
                    f"{scenario} trial {trial} flow {idx}: "
                    f"legacy {t_old!r} != virtual-time {t_new!r} "
                    f"(bandwidth={bandwidth}, cap={cap}, schedule={schedule})"
                )


def _drive(env, streams, transfer):
    """Run closed-loop streams of flows; log joins and completions.

    ``streams[i] = (start, weight, sizes)``: stream ``i`` starts its
    first flow at ``start`` and each next one from the previous flow's
    completion callback, as a PE starts its next descriptor.
    ``transfer(nbytes, weight, done)`` starts one flow and has ``done``
    run when it drains.  Each join is logged from a zero-delay timeout
    pushed right after it, as a PE pushes its next stage's entry, so a
    completion reported one calendar entry late lands after that log
    line instead of before it.  Returns ``[(kind, stream, step, time)]``
    in calendar order.
    """
    log = []

    def step(idx, k):
        _start, weight, sizes = streams[idx]

        def done(_event=None):
            # Called with the drained flow's Event, or bare (callback=).
            log.append(("done", idx, k, env.now))
            if k + 1 < len(sizes):
                step(idx, k + 1)

        transfer(sizes[k], weight, done)
        env.timeout(0.0).callbacks.append(
            lambda _event: log.append(("join", idx, k, env.now))
        )

    for idx, (start, _weight, _sizes) in enumerate(streams):
        env.timeout(start).callbacks.append(lambda _event, idx=idx: step(idx, 0))
    env.run()
    return log


def _joins_at_drain(streams, log):
    """Joins that land on the drain instant of another stream's flow."""
    drains = {}
    for kind, idx, k, when in log:
        if kind == "done" and streams[idx][2][k]:
            drains.setdefault(when, set()).add(idx)
    return sum(
        1 for kind, idx, _k, when in log if kind == "join" and drains.get(when, set()) - {idx}
    )


class TestCallbackVsEvent:
    """``transfer(callback=)`` reports exactly when and in the order the
    Event form does: its zero-delay bare entry takes the calendar entry
    ``Event.succeed()`` took.  Each completion starts the stream's next
    flow, so a report one entry late would move that join against the
    link's other same-instant joins and wakes.  Sizes, start times and
    bandwidths sit on a binary grid so that instants coincide."""

    SCHEDULES_PER_SCENARIO = 60

    @staticmethod
    def _streams(rng, weights):
        return [
            (
                rng.choice([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0]),
                rng.choice(weights),
                [
                    rng.choice([0.0, 64.0, 128.0, 192.0, 256.0, 512.0, 1000.0])
                    for _ in range(rng.randint(1, 4))
                ],
            )
            for _ in range(rng.randint(1, 8))
        ]

    @staticmethod
    def _run(streams, bandwidth, cap, use_callback):
        env = Environment()
        link = FairShareLink(env, bandwidth=bandwidth, per_flow_cap=cap)

        def transfer(nbytes, weight, done):
            if use_callback:
                assert link.transfer(nbytes, weight, callback=done) is None
            else:
                link.transfer(nbytes, weight).callbacks.append(done)

        # env._seq counts calendar pushes: the two forms push one entry
        # for one entry.
        return _drive(env, streams, transfer), link.bytes_completed, env._seq

    @pytest.mark.parametrize(
        "scenario,weights,cap",
        [
            ("uniform_uncapped", [1.0], None),
            ("mixed_uncapped", [0.5, 1.0, 2.0, 4.0], None),
            ("uniform_binding_cap", [2.0], 16.0),
            ("waterfill", [0.5, 1.0, 2.0, 4.0], 16.0),
        ],
    )
    def test_identical_completions(self, scenario, weights, cap):
        rng = random.Random(zlib.crc32(scenario.encode()))
        joins_at_drain = 0
        for trial in range(self.SCHEDULES_PER_SCENARIO):
            bandwidth = rng.choice([64.0, 128.0])
            streams = self._streams(rng, weights)
            events, event_bytes, event_pushes = self._run(
                streams, bandwidth, cap, use_callback=False
            )
            callbacks, callback_bytes, callback_pushes = self._run(
                streams, bandwidth, cap, use_callback=True
            )
            assert callbacks == events, f"{scenario} trial {trial}: {streams}"
            assert callback_bytes == event_bytes
            assert callback_pushes == event_pushes
            completions = [entry for entry in events if entry[0] == "done"]
            assert len(completions) == sum(len(sizes) for _s, _w, sizes in streams)
            joins_at_drain += _joins_at_drain(streams, events)
        # The grid really does put joins on other flows' drain instants
        # (51-118 per scenario at these seeds).
        assert joins_at_drain >= 40


class TestMemorySystemCallbackVsEvent:
    """The same differential over :class:`MemorySystem` routes: local and
    remote DRAM (UPI leg) and CXL (internal-bus leg), from both sockets."""

    @staticmethod
    def _run(streams, use_callback):
        env = Environment()
        system = MemorySystem.spr(env, with_cxl=True)

        def transfer(nbytes, route, done):
            node, write, socket = route
            flow = system.write_flow if write else system.read_flow
            if use_callback:
                assert flow(node, nbytes, socket, callback=done) is None
            else:
                flow(node, nbytes, socket).callbacks.append(done)

        log = _drive(env, streams, transfer)
        counters = sorted(
            (name, value)
            for name, value in env.metrics.snapshot().items()
            if name.startswith("mem.")
        )
        return log, counters, env._seq

    def test_identical_completions(self):
        rng = random.Random(zlib.crc32(b"memory_system"))
        for trial in range(40):
            streams = [
                (
                    rng.choice([0.0, 10.0, 20.0]),
                    (rng.choice([0, 1, 2]), rng.random() < 0.5, rng.choice([0, 1])),
                    [
                        rng.choice([0.0, 4096.0, 65536.0, 100_000.0])
                        for _ in range(rng.randint(1, 3))
                    ],
                )
                for _ in range(rng.randint(1, 8))
            ]
            events = self._run(streams, use_callback=False)
            callbacks = self._run(streams, use_callback=True)
            assert callbacks == events, f"trial {trial}: {streams}"

    def test_multi_link_event_waits_for_every_leg(self):
        env = Environment()
        system = MemorySystem.spr(env, with_cxl=True)
        event = system.write_flow(2, 1e6, from_socket=1)  # CXL bus + UPI legs
        done = []
        event.callbacks.append(lambda _event: done.append(env.now))
        env.run()
        node = system.node(2)
        legs = (node.write_link, node.internal_link, system._upi_links[0])
        assert all(link.bytes_completed == 1e6 for link in legs)
        slowest = max(link.time_to_transfer(1e6) for link in legs)
        assert done == [pytest.approx(slowest)]


class TestSerialLink:
    def test_transfers_queue_back_to_back(self):
        env = Environment()
        link = SerialLink(env, bandwidth=2.0)
        times = []

        def proc(env):
            yield link.transfer(100.0)
            times.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert times == [pytest.approx(50.0), pytest.approx(100.0)]

    def test_idle_gap_not_credited(self):
        env = Environment()
        link = SerialLink(env, bandwidth=1.0)
        times = []

        def proc(env):
            yield env.timeout(100.0)
            yield link.transfer(10.0)
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert times == [pytest.approx(110.0)]

    def test_cancelled_transfer_keeps_time_reservation(self):
        # A posted request still occupies the channel even if the
        # submitter loses interest: cancel suppresses the callbacks but
        # the serialization slot stays booked.
        env = Environment()
        link = SerialLink(env, bandwidth=2.0)
        fired = []
        first = link.transfer(100.0)  # occupies [0, 50)
        first.callbacks.append(lambda ev: fired.append(env.now))
        assert first.cancel() is True
        times = []

        def proc(env):
            yield link.transfer(100.0)  # queued behind the cancelled one
            times.append(env.now)

        env.process(proc(env))
        env.run()
        assert fired == []
        assert times == [pytest.approx(100.0)]
