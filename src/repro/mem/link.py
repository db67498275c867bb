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
A heap entry is the flow itself, as a tuple ``(vfinish, seq, weight,
size, callback, event)``: no object is built per flow.  One wake timer
is armed for the earliest tag and **cancelled**
(:meth:`repro.sim.engine.Event.cancel`) whenever the earliest finish
moves, so the calendar never accumulates stale link timers.  A join is
one straight-line pass in :meth:`FairShareLink.transfer` (advance ``V``,
drain, push, re-arm) and a wake another in ``_on_timer`` (advance,
drain, re-arm or go idle).

``per_flow_cap`` (the §3.4 single-stream ceiling) folds into the
virtual-clock rate while all active weights are equal — the common
case, where either every flow is capped or none is.  When flows with
*different* weights contend under a cap, the link switches to an exact
water-filling mode (capped flows drain at the cap, the unused share is
redistributed to the uncapped flows) that keeps a :class:`_Flow` byte
counter per flow and recomputes rates per membership change in
``_step``; it returns to virtual time once the link drains idle.

Far from t = 0 one ulp of the clock can carry more bytes than the
drain tolerance ``_EPSILON``, so rounding can leave a flow a residual
whose own wake would land back on ``now``.  Both modes drain such a
flow at that instant instead of re-arming there: a wake at the instant
it fires would advance nothing and fire again forever.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable, List, Optional

from repro.sim.engine import Environment, Event, Timeout

_heappush = heapq.heappush
_heappop = heapq.heappop
_by_seq = itemgetter(1)  # a heap entry's join order

#: Residual-byte tolerance when deciding a flow has drained.
_EPSILON = 1e-6


class _Flow:
    """One flow's byte counter in water-filling mode."""

    __slots__ = ("size", "weight", "event", "callback", "seq", "remaining", "rate")

    def __init__(
        self,
        size: float,
        weight: float,
        event: Optional[Event],
        callback: Optional[Callable[[], None]],
        remaining: float,
        seq: int = 0,
    ):
        self.size = size
        self.weight = weight
        # Exactly one of the two is set: the Event a caller waits on, or
        # the callback a zero-delay bare entry calls once the flow drains.
        self.event = event
        self.callback = callback
        self.seq = seq  # link-local join order (deterministic ties)
        self.remaining = remaining
        self.rate = 0.0


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
        # Virtual-time state: (vfinish, seq, weight, size, callback, event).
        self._vheap: List[tuple] = []
        self._V = 0.0
        self._W = 0.0  # total active weight
        self._n = 0
        # Set by the join that finds the link idle, and read only while
        # flows are active: the weight every active flow shares, and
        # per_flow_cap / that weight, the cap on dV/dt (None: no cap).
        self._uniform_weight: Optional[float] = None
        self._vcap: Optional[float] = None
        # Water-filling state (engaged only for mixed weights + cap).
        self._wf_flows: Optional[List[_Flow]] = None
        # Single wake timer, cancelled and re-armed on churn; its
        # callback is bound once, not per arm.
        self._timer: Optional[Timeout] = None
        self._timer_at = 0.0
        self._wake = self._on_timer

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
        return sum(max(0.0, (entry[0] - v_now) * entry[2]) for entry in self._vheap)

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

        On virtual time (every flow's weight equal, or no cap) the join
        is inlined here: advance ``V`` to ``env.now``, finish the drained
        flows, push the new flow's tag and point the wake timer at the
        earliest tag, on local copies of ``V``, ``W`` and ``n``.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        env = self.env
        event = Event(env) if callback is None else None
        size = float(nbytes)
        if nbytes == 0:
            self._finish(size, callback, event)
            return event
        now = env._now
        if self._wf_flows is not None:
            self._wf_sync(now)  # may drain idle: then join on virtual time
            if self._wf_flows is not None:
                self._step(now, _Flow(size, weight, event, callback, size))
                return event
        heap = self._vheap
        n = self._n
        V = self._V
        W = self._W
        # n == 0 implies V == W == 0 and nothing to drain.
        if n:
            elapsed = now - self._last_update
            if elapsed > 0:
                # dV/dt, the service per unit weight (see _vrate).
                rate = self.bandwidth / W
                vcap = self._vcap
                if vcap is not None and vcap < rate:
                    rate = vcap
                V += elapsed * rate
            while heap:
                entry = heap[0]
                if (entry[0] - V) * entry[2] > _EPSILON:
                    break
                _heappop(heap)
                W -= entry[2]
                n -= 1
                self.bytes_completed += entry[3]
                if entry[4] is None:
                    entry[5].succeed()
                else:
                    env.call_in(0.0, entry[4])
            if n == 0:
                V = 0.0
                W = 0.0
        self._last_update = now
        cap = self.per_flow_cap
        if n == 0:
            self._uniform_weight = weight
            # Weights are uniform on this path, so the cap binds for
            # every flow or for none.
            self._vcap = None if cap is None else cap / weight
        elif cap is not None and weight != self._uniform_weight:
            self._V, self._W, self._n = V, W, n
            self._enter_waterfill()
            self._step(now, _Flow(size, weight, event, callback, size))
            return event
        self._seq = seq = self._seq + 1
        _heappush(heap, (V + size / weight, seq, weight, size, callback, event))
        W += weight
        self._V = V
        self._W = W
        self._n = n + 1
        rate = self.bandwidth / W
        vcap = self._vcap
        if vcap is not None and vcap < rate:
            rate = vcap
        delay = (heap[0][0] - V) / rate
        when = now + delay
        timer = self._timer
        if timer is not None:
            if self._timer_at == when:
                return event  # earliest finish unchanged — keep the timer
            timer.cancel()
        self._timer = timer = env.timeout(delay)
        self._timer_at = when
        timer.callbacks.append(self._wake)
        return event

    def time_to_transfer(self, nbytes: float) -> float:
        """Uncontended duration for ``nbytes`` (planning helper)."""
        return nbytes / self.bandwidth

    # -- the wake timer ----------------------------------------------------
    def _on_timer(self, _timer: Event) -> None:
        """The wake timer fired: advance ``V`` to ``env.now``, finish the
        drained flows, and re-arm for the earliest tag or go idle."""
        self._timer = None
        env = self.env
        now = env._now
        if self._wf_flows is not None:
            self._wf_sync(now)  # may drain idle: then nothing to re-arm
            if self._wf_flows is not None:
                self._step(now)
            return
        # A virtual-time timer is cancelled whenever the link drains
        # idle, so at least one flow is active here.
        heap = self._vheap
        n = self._n
        V = self._V
        W = self._W
        elapsed = now - self._last_update
        if elapsed > 0:
            rate = self.bandwidth / W
            vcap = self._vcap
            if vcap is not None and vcap < rate:
                rate = vcap
            V += elapsed * rate
        self._last_update = now
        while True:
            while heap:
                entry = heap[0]
                if (entry[0] - V) * entry[2] > _EPSILON:
                    break
                _heappop(heap)
                W -= entry[2]
                n -= 1
                self.bytes_completed += entry[3]
                if entry[4] is None:
                    entry[5].succeed()
                else:
                    env.call_in(0.0, entry[4])
            if n == 0:
                self._n = 0
                self._V = 0.0
                self._W = 0.0
                return
            rate = self.bandwidth / W
            vcap = self._vcap
            if vcap is not None and vcap < rate:
                rate = vcap
            delay = (heap[0][0] - V) / rate
            when = now + delay
            if when != now:
                break
            # The earliest tag is nearer than the clock can resolve at
            # ``now``: a wake would re-fire at this instant with ``V``
            # stuck.  Serve it here instead: advance ``V`` to the tag,
            # which drains that flow (and any tied with it).
            V = heap[0][0]
        self._V = V
        self._W = W
        self._n = n
        self._timer = timer = env.timeout(delay)
        self._timer_at = when
        timer.callbacks.append(self._wake)

    def _finish(
        self,
        size: float,
        callback: Optional[Callable[[], None]],
        event: Optional[Event],
    ) -> None:
        """Count a drained flow and report it to its owner."""
        self.bytes_completed += size
        if callback is None:
            event.succeed()
        else:
            self.env.call_in(0.0, callback)

    def _vrate(self) -> float:
        """dV/dt: service per unit weight delivered to each active flow."""
        rate = self.bandwidth / self._W
        if self._vcap is not None and self._vcap < rate:
            return self._vcap
        return rate

    # -- water-filling slow path (mixed weights under a cap) -------------
    def _enter_waterfill(self) -> None:
        """Materialize per-flow byte counters and leave virtual time."""
        V = self._V
        self._wf_flows = [
            _Flow(size, weight, event, callback, (vfinish - V) * weight, seq)
            for vfinish, seq, weight, size, callback, event in sorted(
                self._vheap, key=_by_seq
            )
        ]
        self._vheap.clear()
        self._V = 0.0
        self._W = 0.0
        self._n = 0

    def _step(self, now: float, flow: Optional[_Flow] = None) -> None:
        """The water-filling step after a join or a wake: admit ``flow``
        (the joining one, if any), recompute every flow's rate and point
        the single wake timer at the earliest finish (kept when that
        instant is unchanged)."""
        if flow is not None:
            self._seq = flow.seq = self._seq + 1
            self._wf_flows.append(flow)
        while True:
            self._wf_rates()
            delay = min(wf.remaining / wf.rate for wf in self._wf_flows)
            when = now + delay
            if when != now or flow is not None:
                break
            # As in _on_timer: a finish nearer than the clock can resolve
            # at ``now`` would re-fire this wake here forever, so the
            # flows it covers drain at this instant.  (A join arms the
            # wake at ``now`` instead, and that wake lands here.)
            for wf in self._wf_flows:
                if now + wf.remaining / wf.rate == now:
                    wf.remaining = 0.0
            self._wf_sync(now)
            if self._wf_flows is None:
                return  # drained idle; this wake was the only timer
        timer = self._timer
        if timer is not None:
            if self._timer_at == when:
                return
            timer.cancel()
        self._timer = timer = self.env.timeout(delay)
        self._timer_at = when
        timer.callbacks.append(self._wake)

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
        """Advance the water-filling byte counters to ``now`` and finish
        the drained flows; back to virtual time if that drains the link."""
        flows = self._wf_flows
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed > 0:
            for flow in flows:
                flow.remaining -= flow.rate * elapsed
        survivors: List[_Flow] = []
        for flow in flows:  # join order: oldest completes first
            if flow.remaining <= _EPSILON:
                self._finish(flow.size, flow.callback, flow.event)
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
