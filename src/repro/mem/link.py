"""Fair-share bandwidth links (virtual-time implementation).

A :class:`FairShareLink` models a bandwidth-limited resource (device
fabric port, DRAM node, UPI link, CXL port) shared by concurrent flows
using generalized processor sharing: at any instant, each active flow
progresses proportionally to its weight.  Callers ask for
``transfer(nbytes)`` and receive an event that triggers when the flow's
bytes have drained — or pass ``callback=`` and have ``callback()`` run
from a zero-delay bare entry pushed at that instant, which is the same
calendar entry without an Event per flow.

Propagation latency is *not* part of the link — callers model latency
with explicit timeouts so that pipelined (throughput) and un-pipelined
(latency) experiments can compose the two differently.

Algorithm
---------
The link keeps a **virtual clock** ``V`` (GPS virtual time): between
membership changes, ``V`` advances at the per-unit-weight service rate,
and every flow carries a fixed *virtual finish tag* ``V_join +
nbytes/weight``.  A flow is done exactly when ``V`` reaches its tag, so
the active flows sit in a heap ordered by tag and a join/leave costs
O(log n) — no per-flow rate recomputation, no per-flow byte updates.
One wake timer is armed for the earliest tag and **cancelled**
(:meth:`repro.sim.engine.Event.cancel`) whenever the earliest finish
moves, so the calendar never accumulates stale link timers.

``per_flow_cap`` (the §3.4 single-stream ceiling) folds into the
virtual-clock rate while all active weights are equal — the common
case, where either every flow is capped or none is.  When flows with
*different* weights contend under a cap, the link switches to an exact
water-filling mode (capped flows drain at the cap, the unused share is
redistributed to the uncapped flows) that recomputes rates per
membership change; it returns to the virtual-time fast path once the
link drains idle.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.sim.engine import Environment, Event, Timeout

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Residual-byte tolerance when deciding a flow has drained.
_EPSILON = 1e-6


class _Flow:
    __slots__ = (
        "size", "weight", "event", "callback", "seq", "vfinish", "remaining", "rate"
    )

    def __init__(
        self,
        nbytes: float,
        weight: float,
        event: Optional[Event],
        callback: Optional[Callable[[], None]],
    ):
        self.size = float(nbytes)
        self.weight = weight
        # Exactly one of the two is set: the Event a caller waits on, or
        # the callback a zero-delay bare entry calls once the flow drains.
        self.event = event
        self.callback = callback
        self.seq = 0  # link-local join order (deterministic ties)
        self.vfinish = 0.0  # virtual-time mode: finish tag
        self.remaining = 0.0  # water-filling mode: bytes left
        self.rate = 0.0  # water-filling mode: current rate


class FairShareLink:
    """Bandwidth-limited pipe with weighted fair sharing among flows."""

    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        name: str = "",
        per_flow_cap: Optional[float] = None,
    ):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if per_flow_cap is not None and per_flow_cap <= 0:
            raise ValueError(f"per-flow cap must be positive, got {per_flow_cap}")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.name = name
        #: Single-stream ceiling (e.g. one sequential DRAM stream cannot
        #: use every channel); None = only the aggregate limit applies.
        self.per_flow_cap = per_flow_cap
        #: Bytes of all flows that have fully drained (counted at drain
        #: time — in-flight bytes are in :attr:`bytes_inflight`).
        self.bytes_completed = 0.0
        self._last_update = env.now
        self._seq = 0
        # Virtual-time state (fast path).
        self._vheap: List = []  # (vfinish, seq, flow)
        self._V = 0.0
        self._W = 0.0  # total active weight
        self._n = 0
        self._uniform_weight: Optional[float] = None
        #: per_flow_cap / uniform weight: the cap on dV/dt (None: no cap).
        self._vcap: Optional[float] = None
        # Water-filling state (engaged only for mixed weights + cap).
        self._wf_flows: Optional[List[_Flow]] = None
        # Single wake timer, cancelled and re-armed on churn; its
        # callback is bound once, not per arm.
        self._timer: Optional[Timeout] = None
        self._timer_at = 0.0
        self._wake = self._step

    # -- public surface --------------------------------------------------
    @property
    def active_flows(self) -> int:
        if self._wf_flows is not None:
            return len(self._wf_flows)
        return self._n

    @property
    def bytes_inflight(self) -> float:
        """Bytes submitted but not yet drained, as of ``env.now``.

        Pure read: advances nothing and completes nothing, so it is safe
        to sample mid-run (telemetry, tests).
        """
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

    def instantaneous_rate(self) -> float:
        """Equal-share per-flow rate right now (full bandwidth when idle).

        Kept as the historical equal-weight approximation: callers use it
        for planning, not accounting, and weighted flows are the
        exception.
        """
        n = max(1, self.active_flows)
        rate = self.bandwidth / n
        if self.per_flow_cap is not None:
            rate = min(rate, self.per_flow_cap)
        return rate

    def transfer(
        self,
        nbytes: float,
        weight: float = 1.0,
        callback: Optional[Callable[[], None]] = None,
    ) -> Optional[Event]:
        """Start a flow of ``nbytes``.

        Without ``callback``, returns an event that triggers when the
        flow's bytes have drained.  With ``callback``, returns None and,
        at the drain instant, pushes a zero-delay bare entry calling
        ``callback()`` — the calendar entry ``Event.succeed()`` would have
        pushed, minus the Event (and any Condition) a caller that only
        counts completions does not need.

        ``weight`` sets the flow's share under contention (weighted
        fair sharing — the QoS/traffic-class knob of §3.4): a flow of
        weight 2 drains twice as fast as a weight-1 flow while both
        are active.  The optional per-flow cap still applies, and
        bandwidth left unused by capped flows is redistributed to the
        uncapped ones (water-filling).
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        event = Event(self.env) if callback is None else None
        flow = _Flow(nbytes, weight, event, callback)
        if nbytes == 0:
            self._finish(flow)
        else:
            self._step(None, flow)
        return event

    def time_to_transfer(self, nbytes: float) -> float:
        """Uncontended duration for ``nbytes`` (planning helper)."""
        return nbytes / self.bandwidth

    # -- the one join/wake path -------------------------------------------
    def _step(self, timer: Optional[Event] = None, flow: Optional[_Flow] = None) -> None:
        """Advance to ``env.now``, finish drained flows, admit ``flow``,
        and point the single wake timer at the earliest finish.

        This is both the wake timer's callback (``timer`` is the fired
        timer) and the whole of a join (``flow`` is the new flow).  The
        virtual-time path is inlined — the service rate, the drain loop
        and the re-arm, on local copies of ``V``, ``W`` and ``n`` — so a
        join or a wake costs one call.
        """
        env = self.env
        now = env._now
        if timer is not None:
            self._timer = None
        if self._wf_flows is not None:
            self._wf_sync(now)  # may drain idle and return to virtual time
        if self._wf_flows is not None:
            if flow is not None:
                self._wf_admit(flow)
        else:
            # n == 0 implies V == W == 0 and nothing to drain.
            n = self._n
            V = self._V
            W = self._W
            if n:
                elapsed = now - self._last_update
                if elapsed > 0:
                    # dV/dt, the service per unit weight (see _vrate).
                    rate = self.bandwidth / W
                    capped = self._vcap
                    if capped is not None and capped < rate:
                        rate = capped
                    V += elapsed * rate
                heap = self._vheap
                while heap and (heap[0][0] - V) * heap[0][2].weight <= _EPSILON:
                    drained = _heappop(heap)[2]
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
                        # Weights are uniform on this path, so the cap
                        # binds for every flow or for none.
                        self._vcap = None if cap is None else cap / weight
                    self._seq = seq = self._seq + 1
                    flow.seq = seq
                    flow.vfinish = vfinish = V + flow.size / weight
                    _heappush(self._vheap, (vfinish, seq, flow))
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
                return  # earliest finish unchanged — keep the timer
            timer.cancel()
        self._timer = timer = env.timeout(delay)
        self._timer_at = when
        timer.callbacks.append(self._wake)

    def _finish(self, flow: _Flow) -> None:
        """Count a drained flow and report it to its owner."""
        self.bytes_completed += flow.size
        if flow.callback is None:
            flow.event.succeed()
        else:
            self.env.call_in(0.0, flow.callback)

    def _vrate(self) -> float:
        """dV/dt: service per unit weight delivered to each active flow."""
        rate = self.bandwidth / self._W
        if self._vcap is not None and self._vcap < rate:
            return self._vcap
        return rate

    # -- water-filling slow path (mixed weights under a cap) -------------
    def _enter_waterfill(self) -> None:
        """Materialize per-flow byte counters and leave virtual time."""
        flows: List[_Flow] = []
        while self._vheap:
            _tag, _seq, flow = _heappop(self._vheap)
            flow.remaining = (flow.vfinish - self._V) * flow.weight
            flows.append(flow)
        flows.sort(key=lambda flow: flow.seq)
        self._wf_flows = flows
        self._V = 0.0
        self._W = 0.0
        self._n = 0
        self._uniform_weight = self._vcap = None

    def _wf_admit(self, flow: _Flow) -> None:
        self._seq += 1
        flow.seq = self._seq
        flow.remaining = flow.size
        self._wf_flows.append(flow)

    def _wf_rates(self) -> None:
        """Water-filling under the uniform per-flow cap.

        Flows whose proportional share exceeds the cap drain at exactly
        the cap; the bandwidth they cannot use is re-shared among the
        remaining flows (iterating, since the re-share can push more
        flows over the cap).
        """
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
        """Water-filling counterpart of the virtual-time drain in :meth:`_step`."""
        flows = self._wf_flows
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed > 0:
            for flow in flows:
                flow.remaining -= flow.rate * elapsed
        survivors: List[_Flow] = []
        for flow in flows:  # join order: oldest completes first
            if flow.remaining <= _EPSILON:
                self._finish(flow)
            else:
                survivors.append(flow)
        if survivors:
            self._wf_flows = survivors
        else:
            # Drained idle: return to the O(log n) virtual-time path.
            self._wf_flows = None
            self._V = 0.0
            self._W = 0.0
            self._n = 0
            self._uniform_weight = self._vcap = None


class SerialLink:
    """Strictly serialized link: one transfer at a time, FIFO order.

    Models narrow interfaces where requests do not interleave, e.g. the
    non-posted ENQCMD path or a single DMA channel's descriptor fetch.

    Completion events are ordinary scheduled events, so a caller that
    loses interest can ``event.cancel()`` them: the callbacks never run,
    but the time reservation stays — a posted request still occupies the
    channel even if nobody is waiting for it.
    """

    def __init__(self, env: Environment, bandwidth: float, name: str = ""):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        self.env = env
        self.bandwidth = float(bandwidth)
        self.name = name
        self._free_at = env.now

    def transfer(self, nbytes: float) -> Event:
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        start = max(self.env.now, self._free_at)
        duration = nbytes / self.bandwidth
        self._free_at = start + duration
        event = Event(self.env)
        event.succeed(delay=self._free_at - self.env.now)
        return event
