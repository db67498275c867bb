"""Group arbiter: QoS-weighted descriptor dispatch (paper §3.2, F3).

The arbiter picks which WQ feeds the next free PE.  It implements
smooth weighted round-robin over non-empty WQs using the configured
priorities: higher-priority WQs are served proportionally more often,
but no WQ starves — exactly the fairness contract the paper describes.

A PE asks for work with :meth:`GroupArbiter.request`.  The arbiter
hands the selected descriptor over by setting the PE's ``_descriptor``
and pushing one zero-delay bare entry to its ``_dispatch`` — the entry
a delivering ``Event.succeed(descriptor)`` would push, without the
Event.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING, Union

from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.wq import WorkQueue
from repro.sim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dsa.engine import ProcessingEngine

Descriptor = Union[WorkDescriptor, BatchDescriptor]


class GroupArbiter:
    """Dispatches descriptors from a group's WQs to waiting PEs."""

    def __init__(self, env: Environment, wqs: List[WorkQueue]):
        if not wqs:
            raise ValueError("arbiter needs at least one WQ")
        self.env = env
        self.wqs = list(wqs)
        self._current_weight: Dict[int, int] = {wq.wq_id: 0 for wq in wqs}
        self._waiting_pes: List["ProcessingEngine"] = []
        self.dispatched = 0
        owner = self.wqs[0].name.rsplit(".", 1)[0]
        self._m_dispatched = env.metrics.counter(f"{owner}.arbiter.dispatched")
        for wq in self.wqs:
            wq.on_enqueue = self._on_enqueue

    def request(self, pe: "ProcessingEngine") -> None:
        """Hand ``pe`` the next descriptor now, or once one is enqueued.

        Waiting PEs are served first come, first served.
        """
        descriptor = self._select()
        if descriptor is not None:
            self._hand_off(pe, descriptor)
        else:
            self._waiting_pes.append(pe)

    def _hand_off(self, pe: "ProcessingEngine", descriptor: Descriptor) -> None:
        pe._descriptor = descriptor
        self.env.call_in(0.0, pe._dispatch)

    def _on_enqueue(self, _wq: WorkQueue) -> None:
        if not self._waiting_pes:
            return
        descriptor = self._select()
        if descriptor is not None:
            self._hand_off(self._waiting_pes.pop(0), descriptor)

    def _select(self) -> Optional[Descriptor]:
        """Smooth weighted round-robin over non-empty WQs."""
        candidates = [wq for wq in self.wqs if not wq.is_empty]
        if not candidates:
            return None
        total = sum(wq.priority for wq in candidates)
        best: Optional[WorkQueue] = None
        for wq in candidates:
            self._current_weight[wq.wq_id] += wq.priority
            if best is None or self._current_weight[wq.wq_id] > self._current_weight[best.wq_id]:
                best = wq
        assert best is not None
        self._current_weight[best.wq_id] -= total
        self.dispatched += 1
        self._m_dispatched.add()
        descriptor = best.pop()
        # The WQ's priority also shapes the descriptor's fabric share
        # while its data streams (QoS under port contention, §3.4).
        descriptor.dispatch_weight = float(best.priority)
        return descriptor
