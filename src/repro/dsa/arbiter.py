"""Group arbiter: QoS-weighted descriptor dispatch (paper §3.2, F3).

The arbiter picks which WQ feeds the next free PE.  It implements
smooth weighted round-robin over non-empty WQs using the configured
priorities: higher-priority WQs are served proportionally more often,
but no WQ starves — exactly the fairness contract the paper describes.

A PE asks for work with :meth:`GroupArbiter.request`.  The arbiter
hands the selected descriptor over by setting the PE's ``_descriptor``
and pushing one zero-delay bare entry to its ``_dispatch`` — the entry
a delivering ``Event.succeed(descriptor)`` would push, without the
Event.  A PE that finds every WQ empty waits; only then does the
arbiter set its WQs' ``on_enqueue`` hook, and it clears the hook again
at the hand-off that leaves no PE waiting.  While every PE is busy, as
on an overloaded SWQ, an enqueue calls nothing.
"""

from __future__ import annotations

from typing import Deque, List, Optional, Tuple, TYPE_CHECKING, Union

from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.wq import WorkQueue
from repro.sim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dsa.engine import ProcessingEngine

Descriptor = Union[WorkDescriptor, BatchDescriptor]


class GroupArbiter:
    """Dispatches descriptors from a group's WQs to waiting PEs.

    Each WQ's queue, priority and dispatch weight are read once, at
    construction, into :attr:`_slots`; ``_current_weight[i]`` is the
    smooth-WRR credit of ``wqs[i]``.  A pick is then one pass over the
    slots with no per-WQ property calls or dict lookups.
    """

    def __init__(self, env: Environment, wqs: List[WorkQueue]):
        if not wqs:
            raise ValueError("arbiter needs at least one WQ")
        self.env = env
        self.wqs = list(wqs)
        #: ``(wq, its queue, priority, priority as the fabric weight)``
        #: per WQ, in group order.  A WQ keeps one queue object and its
        #: config for life, so none of these goes stale.
        self._slots: Tuple[Tuple[WorkQueue, Deque[Descriptor], int, float], ...] = tuple(
            (wq, wq._items, wq.priority, float(wq.priority)) for wq in self.wqs
        )
        self._current_weight: List[int] = [0] * len(self.wqs)
        self._waiting_pes: List["ProcessingEngine"] = []
        self.dispatched = 0
        owner = self.wqs[0].name.rsplit(".", 1)[0]
        self._m_dispatched = env.metrics.counter(f"{owner}.arbiter.dispatched")

    def request(self, pe: "ProcessingEngine") -> None:
        """Hand ``pe`` the next descriptor now, or once one is enqueued.

        Waiting PEs are served first come, first served.
        """
        descriptor = self._select()
        if descriptor is not None:
            pe._descriptor = descriptor
            self.env.call_in(0.0, pe._dispatch)
            return
        waiting = self._waiting_pes
        if not waiting:
            for wq in self.wqs:
                wq.on_enqueue = self._on_enqueue
        waiting.append(pe)

    def _on_enqueue(self, _wq: WorkQueue) -> None:
        """A WQ took a descriptor while a PE waits: hand it over."""
        waiting = self._waiting_pes
        pe = waiting.pop(0)
        if not waiting:
            for wq in self.wqs:
                wq.on_enqueue = None
        # The enqueue just made a WQ non-empty, so there is a pick.
        pe._descriptor = self._select()
        self.env.call_in(0.0, pe._dispatch)

    def _select(self) -> Optional[Descriptor]:
        """Smooth weighted round-robin over non-empty WQs.

        Every non-empty WQ gains its priority in credit, the one with
        the most credit (the first, on a tie) is served and pays back
        the non-empty WQs' total priority.
        """
        weights = self._current_weight
        best = -1
        best_weight = total = 0
        for i, (_wq, items, priority, _weight) in enumerate(self._slots):
            if items:
                weight = weights[i] + priority
                weights[i] = weight
                total += priority
                if best < 0 or weight > best_weight:
                    best = i
                    best_weight = weight
        if best < 0:
            return None
        weights[best] = best_weight - total
        self.dispatched += 1
        self._m_dispatched.value += 1
        wq, items, _priority, dispatch_weight = self._slots[best]
        # WorkQueue.pop inlined: the queue is known to be non-empty.
        descriptor = items.popleft()
        env = self.env
        now = env._now
        wq._m_occupancy.update(now, len(items))
        tracer = env.tracer
        if tracer.enabled and descriptor.trace_track >= 0:
            tracer.end(now, "queued", "queue", wq.name, descriptor.trace_track)
        # The WQ's priority also shapes the descriptor's fabric share
        # while its data streams (QoS under port contention, §3.4).
        descriptor.dispatch_weight = dispatch_weight
        return descriptor
