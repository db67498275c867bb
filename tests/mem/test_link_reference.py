"""Exact differential test: the fair-share link against a frozen reference.

``FairShareLink`` joins a flow in one straight-line pass in
``transfer`` and wakes in ``_on_timer``, over ``(vfinish, seq, weight,
size, callback, event)`` heap tuples.  ``ReferenceLink`` below is the
link it replaced, kept verbatim apart from docstrings: one generic
``_step`` for both joins and wakes, over a ``_Flow`` object per flow.
Both must step at the same instants with the same float arithmetic,
arm, keep or cancel the same wake timers and push the same calendar
entries in the same order, so every schedule must leave an identical
``(kind, flow, time)`` log, ``bytes_completed``, push count
(``env._seq``), ``cancelled_events`` and ``stale_timers``.

Sizes, start times, gaps and bandwidths sit on a binary grid so that
joins land exactly on other flows' drain instants.
"""

import heapq
from typing import Callable, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

import repro.mem.link as link_module
from repro.mem.link import FairShareLink
from repro.sim import Environment
from repro.sim.engine import Event

_EPSILON = 1e-6


class _ReferenceFlow:
    __slots__ = ("size", "weight", "event", "callback", "seq", "vfinish", "remaining", "rate")

    def __init__(self, nbytes, weight, event, callback):
        self.size = float(nbytes)
        self.weight = weight
        self.event = event
        self.callback = callback
        self.seq = 0
        self.vfinish = 0.0
        self.remaining = 0.0
        self.rate = 0.0


class ReferenceLink:
    """The virtual-time link with one generic ``_step``, frozen as the oracle."""

    def __init__(self, env, bandwidth, name="", per_flow_cap=None):
        self.env = env
        self.bandwidth = float(bandwidth)
        self.name = name
        self.per_flow_cap = per_flow_cap
        self.bytes_completed = 0.0
        self._last_update = env.now
        self._seq = 0
        self._vheap: List = []
        self._V = 0.0
        self._W = 0.0
        self._n = 0
        self._uniform_weight: Optional[float] = None
        self._vcap: Optional[float] = None
        self._wf_flows: Optional[List[_ReferenceFlow]] = None
        self._timer = None
        self._timer_at = 0.0
        self._wake = self._step

    @property
    def bytes_inflight(self) -> float:
        now = self.env.now
        elapsed = now - self._last_update
        if self._wf_flows is not None:
            if elapsed <= 0:
                return sum(flow.remaining for flow in self._wf_flows)
            return sum(
                max(0.0, flow.remaining - flow.rate * elapsed) for flow in self._wf_flows
            )
        if not self._n:
            return 0.0
        v_now = self._V + (elapsed * self._vrate() if elapsed > 0 else 0.0)
        return sum(
            max(0.0, (flow.vfinish - v_now) * flow.weight)
            for _tag, _seq, flow in self._vheap
        )

    def transfer(self, nbytes, weight=1.0, callback: Optional[Callable[[], None]] = None):
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        event = Event(self.env) if callback is None else None
        flow = _ReferenceFlow(nbytes, weight, event, callback)
        if nbytes == 0:
            self._finish(flow)
        else:
            self._step(None, flow)
        return event

    def _step(self, timer=None, flow=None) -> None:
        env = self.env
        now = env._now
        if timer is not None:
            self._timer = None
        if self._wf_flows is not None:
            self._wf_sync(now)
        if self._wf_flows is not None:
            if flow is not None:
                self._wf_admit(flow)
        else:
            n = self._n
            V = self._V
            W = self._W
            if n:
                elapsed = now - self._last_update
                if elapsed > 0:
                    rate = self.bandwidth / W
                    capped = self._vcap
                    if capped is not None and capped < rate:
                        rate = capped
                    V += elapsed * rate
                heap = self._vheap
                while heap and (heap[0][0] - V) * heap[0][2].weight <= _EPSILON:
                    drained = heapq.heappop(heap)[2]
                    W -= drained.weight
                    n -= 1
                    self._finish(drained)
                if n == 0:
                    V = 0.0
                    W = 0.0
                    self._uniform_weight = self._vcap = None
            self._last_update = now
            if flow is not None:
                weight = flow.weight
                cap = self.per_flow_cap
                if n and cap is not None and weight != self._uniform_weight:
                    self._V, self._W, self._n = V, W, n
                    self._enter_waterfill()
                    self._wf_admit(flow)
                else:
                    if n == 0:
                        self._uniform_weight = weight
                        self._vcap = None if cap is None else cap / weight
                    self._seq = seq = self._seq + 1
                    flow.seq = seq
                    flow.vfinish = vfinish = V + flow.size / weight
                    heapq.heappush(self._vheap, (vfinish, seq, flow))
                    W += weight
                    n += 1
            if self._wf_flows is None:
                self._V, self._W, self._n = V, W, n

        flows = self._wf_flows
        if flows is not None:
            self._wf_rates()
            delay = min(flow.remaining / flow.rate for flow in flows)
        elif self._n:
            rate = self.bandwidth / self._W
            capped = self._vcap
            if capped is not None and capped < rate:
                rate = capped
            delay = (self._vheap[0][0] - self._V) / rate
        else:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            return
        when = now + delay
        timer = self._timer
        if timer is not None:
            if self._timer_at == when:
                return
            timer.cancel()
        self._timer = timer = env.timeout(delay)
        self._timer_at = when
        timer.callbacks.append(self._wake)

    def _finish(self, flow) -> None:
        self.bytes_completed += flow.size
        if flow.callback is None:
            flow.event.succeed()
        else:
            self.env.call_in(0.0, flow.callback)

    def _vrate(self) -> float:
        rate = self.bandwidth / self._W
        if self._vcap is not None and self._vcap < rate:
            return self._vcap
        return rate

    def _enter_waterfill(self) -> None:
        flows = []
        while self._vheap:
            _tag, _seq, flow = heapq.heappop(self._vheap)
            flow.remaining = (flow.vfinish - self._V) * flow.weight
            flows.append(flow)
        flows.sort(key=lambda flow: flow.seq)
        self._wf_flows = flows
        self._V = 0.0
        self._W = 0.0
        self._n = 0
        self._uniform_weight = self._vcap = None

    def _wf_admit(self, flow) -> None:
        self._seq += 1
        flow.seq = self._seq
        flow.remaining = flow.size
        self._wf_flows.append(flow)

    def _wf_rates(self) -> None:
        cap = self.per_flow_cap
        active = self._wf_flows
        remaining_bw = self.bandwidth
        while active:
            total_weight = sum(flow.weight for flow in active)
            fair = remaining_bw / total_weight
            uncapped = []
            n_capped = 0
            for flow in active:
                if flow.weight * fair > cap:
                    flow.rate = cap
                    n_capped += 1
                else:
                    uncapped.append(flow)
            if not n_capped:
                for flow in active:
                    flow.rate = flow.weight * fair
                return
            remaining_bw -= cap * n_capped
            active = uncapped

    def _wf_sync(self, now: float) -> None:
        flows = self._wf_flows
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed > 0:
            for flow in flows:
                flow.remaining -= flow.rate * elapsed
        survivors = []
        for flow in flows:
            if flow.remaining <= _EPSILON:
                self._finish(flow)
            else:
                survivors.append(flow)
        if survivors:
            self._wf_flows = survivors
        else:
            self._wf_flows = None
            self._V = 0.0
            self._W = 0.0
            self._n = 0
            self._uniform_weight = self._vcap = None


def _run(link_cls, bandwidth, cap, streams, samples):
    """Drive closed-loop streams of flows through one link.

    ``streams[i] = (start, weight, sizes, gap, use_callback)``: stream
    ``i`` starts its first flow at ``start`` and each next one ``gap``
    after the previous flow drains (from its completion report when
    ``gap`` is 0, as a PE starts its next descriptor).  Every join is
    logged as it happens and every completion as it is reported;
    ``bytes_inflight`` is read at each of ``samples``.  Returns the log
    and the link's and calendar's counters.
    """
    env = Environment()
    link = link_cls(env, bandwidth, per_flow_cap=cap)
    log = []

    def start(idx, k):
        _start, weight, sizes, gap, use_callback = streams[idx]

        def done(_event=None):
            log.append(("done", (idx, k), env.now))
            if k + 1 == len(sizes):
                return
            if gap:
                env.timeout(gap).callbacks.append(lambda _event: start(idx, k + 1))
            else:
                start(idx, k + 1)

        if use_callback:
            assert link.transfer(sizes[k], weight, callback=done) is None
        else:
            link.transfer(sizes[k], weight).callbacks.append(done)
        log.append(("join", (idx, k), env.now))

    for idx, stream in enumerate(streams):
        env.timeout(stream[0]).callbacks.append(lambda _event, idx=idx: start(idx, 0))
    for when in samples:
        env.timeout(when).callbacks.append(
            lambda _event: log.append(("inflight", link.bytes_inflight, env.now))
        )
    env.run()
    return log, link.bytes_completed, env._seq, env.cancelled_events, env.stale_timers


def _assert_same(bandwidth, cap, streams, samples):
    ours = _run(FairShareLink, bandwidth, cap, streams, samples)
    assert ours == _run(ReferenceLink, bandwidth, cap, streams, samples)
    return ours


_GRID = [0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0]
_SIZES = [0.0, 64.0, 128.0, 192.0, 256.0, 512.0, 1000.0]
_WEIGHTS = [0.5, 1.0, 2.0, 4.0]

_streams = st.lists(
    st.tuples(
        st.sampled_from(_GRID),
        st.sampled_from(_WEIGHTS),
        st.lists(st.sampled_from(_SIZES), min_size=1, max_size=4),
        st.sampled_from([0.0, 0.0, 1.0, 8.0, 32.0]),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


@st.composite
def _schedules(draw):
    # 100 B/ns takes the drain instants off the grid, so residuals
    # within _EPSILON of zero occur.
    bandwidth = draw(st.sampled_from([64.0, 128.0, 100.0]))
    # None, binding (below the share of fewer than four flows) and
    # non-binding (above the whole link): mixed weights under either
    # cap enter water-filling.
    cap = draw(st.sampled_from([None, bandwidth / 4.0, bandwidth * 2.0]))
    streams = draw(_streams)
    if draw(st.booleans()):
        weight = streams[0][1]
        streams = [(start, weight, *rest) for start, _w, *rest in streams]
    samples = draw(st.lists(st.sampled_from(_GRID + [5.0, 10.0, 12.0, 20.0]), max_size=4))
    return bandwidth, cap, streams, samples


@settings(max_examples=300, deadline=None)
@given(_schedules())
def test_matches_reference(schedule):
    _assert_same(*schedule)


def _stream(start, weight, sizes, gap=0.0, use_callback=True):
    return (start, weight, sizes, gap, use_callback)


#: Hand-placed schedules, one per path the link must keep exact; each
#: also runs through the reference in ``test_named_cases_cover_the_paths``.
_CASES = {
    # 64 B at 64 B/ns drains at t=1, exactly when the second stream joins.
    "join_at_drain": (
        64.0,
        None,
        [_stream(0.0, 1.0, [64.0]), _stream(1.0, 1.0, [64.0], use_callback=False)],
        [],
    ),
    # Zero-byte flows in both forms, alone and next to a live flow.
    "zero_byte": (
        64.0,
        None,
        [_stream(0.0, 1.0, [0.0, 128.0, 0.0]), _stream(1.0, 1.0, [0.0], use_callback=False)],
        [1.0],
    ),
    # Binding cap, uniform weights: the rate is the cap whoever joins,
    # so a later tag leaves the earliest finish — and the timer — alone.
    "keep_timer": (64.0, 16.0, [_stream(0.0, 2.0, [64.0]), _stream(1.0, 2.0, [512.0])], [2.0]),
    # Mixed weights under a cap: into water-filling, drain idle, back out.
    "waterfill_in_and_out": (
        64.0,
        16.0,
        [
            _stream(0.0, 1.0, [256.0]),
            _stream(1.0, 4.0, [256.0], use_callback=False),
            _stream(64.0, 1.0, [128.0, 64.0]),
        ],
        [2.0, 20.0, 65.0],
    ),
    # Weights 1:3 under a non-binding cap share 16:48 B/ns, so both
    # water-filling flows drain at t=4; the join at t=4 pops before
    # their wake timer, drains the link idle and re-enters virtual time
    # with that timer still pending.
    "waterfill_drains_idle_on_join": (
        64.0,
        64.0,
        [
            _stream(0.0, 1.0, [64.0]),
            _stream(0.0, 3.0, [192.0], use_callback=False),
            _stream(4.0, 1.0, [64.0]),
        ],
        [2.0],
    ),
    # At 100 B/ns drain instants are inexact: some join lands where a
    # flow's residual is a few ulps above zero, and must still finish
    # it (the _EPSILON tolerance).  Found by a random search.
    "join_within_epsilon": (
        100.0,
        None,
        [
            _stream(2.0, 1.0, [512.0], 8.0, False),
            _stream(3.0, 1.0, [512.0]),
            _stream(16.0, 1.0, [1000.0]),
            _stream(2.0, 1.0, [1000.0, 256.0, 192.0], 8.0),
            _stream(4.0, 1.0, [64.0, 64.0, 512.0, 1000.0]),
            _stream(2.0, 1.0, [192.0], 1.0, False),
            _stream(8.0, 1.0, [512.0, 1000.0, 512.0], 0.0, False),
            _stream(3.0, 1.0, [512.0, 192.0, 1000.0]),
        ],
        [],
    ),
    # Entering water-filling lists the flows in join order, not tag
    # order; the order shows in the float sum of bytes_inflight.
    "waterfill_join_order": (
        100.0,
        30.0,
        [
            _stream(0.0, 1.0, [1300.0]),
            _stream(0.0, 1.0, [300.0]),
            _stream(0.0, 1.0, [300.0]),
            _stream(1.0, 4.0, [300.0]),
        ],
        [6.0],
    ),
}


def test_named_cases_cover_the_paths(monkeypatch):
    seen = {"waterfill": 0, "kept": 0, "idle_join": 0}
    transfer = FairShareLink.transfer
    enter = FairShareLink._enter_waterfill

    def counting_transfer(self, nbytes, weight=1.0, callback=None):
        timer = self._timer
        in_waterfill = self._wf_flows is not None
        result = transfer(self, nbytes, weight, callback)
        if nbytes and timer is not None and self._timer is timer and not timer.cancelled:
            seen["kept"] += 1
        if in_waterfill and self._wf_flows is None:
            seen["idle_join"] += 1
        return result

    def counting_enter(self):
        seen["waterfill"] += 1
        enter(self)

    monkeypatch.setattr(FairShareLink, "transfer", counting_transfer)
    monkeypatch.setattr(FairShareLink, "_enter_waterfill", counting_enter)
    results = {name: _assert_same(*case) for name, case in _CASES.items()}

    log = results["join_at_drain"][0]
    assert ("join", (1, 0), 1.0) in log and ("done", (0, 0), 1.0) in log
    assert [entry for entry in results["zero_byte"][0] if entry[0] == "inflight"] == [
        ("inflight", 64.0, 1.0)
    ]
    assert seen["kept"] >= 1
    assert seen["waterfill"] >= 3  # once in each water-filling case
    assert seen["idle_join"] >= 1
    log = results["waterfill_in_and_out"][0]
    inflight = [value for kind, value, _t in log if kind == "inflight"]
    assert inflight[0] > 0.0 and inflight[-1] > 0.0


@pytest.mark.parametrize("cap", [None, 16.0])
def test_uniform_weights_build_no_flow_object(monkeypatch, cap):
    def no_flow(*_args):
        raise AssertionError("_Flow built on the virtual-time path")

    monkeypatch.setattr(link_module, "_Flow", no_flow)
    streams = [
        _stream(start, 2.0, [64.0, 0.0, 512.0], gap, start % 2 == 0)
        for start, gap in ((0.0, 0.0), (1.0, 8.0), (2.0, 0.0), (3.0, 1.0))
    ]
    log = _run(FairShareLink, 64.0, cap, streams, [4.0])[0]
    assert sum(1 for entry in log if entry[0] == "done") == 12
    # Mixed weights without a cap stay on virtual time too.
    mixed = [_stream(0.0, weight, [256.0]) for weight in _WEIGHTS]
    assert len(_run(FairShareLink, 64.0, None, mixed, [])[0]) == 8
