"""Descriptor submission paths (data path, paper §3.3).

Each call returns the generator of one
:class:`~repro.runtime.op.RuntimeOp` (``yield from`` it inside a client
process); its stages run as bare calendar entries.  The mode is decided by the
target WQ: dedicated queues take a posted MOVDIR64B; shared queues take
non-posted ENQCMD with a retry loop.
"""

from __future__ import annotations

from typing import Generator, Optional, Union

from repro.cpu.core import CpuCore, CycleCategory
from repro.cpu.instructions import InstructionCosts
from repro.dsa.config import WqMode
from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.runtime.driver import Portal
from repro.runtime.op import RuntimeOp
from repro.sim.engine import Environment

Descriptor = Union[WorkDescriptor, BatchDescriptor]

DEFAULT_COSTS = InstructionCosts()


def prepare_descriptor(
    env: Environment,
    core: CpuCore,
    descriptor: Descriptor,
    costs: InstructionCosts = DEFAULT_COSTS,
    allocate: bool = False,
) -> Generator:
    """Model descriptor allocation (optional) and field preparation.

    The paper ignores allocation time for throughput results because
    real applications pre-allocate descriptor rings (§4.2); pass
    ``allocate=True`` only for the Fig 5 breakdown.
    """
    return RuntimeOp(env, core, costs).for_prepare(descriptor, allocate).run()


def submit(
    env: Environment,
    core: CpuCore,
    portal: Portal,
    descriptor: Descriptor,
    costs: InstructionCosts = DEFAULT_COSTS,
    max_retries: Optional[int] = None,
    source: Optional[str] = None,
) -> Generator:
    """Issue the descriptor through ``portal``; returns retry count.

    * DWQ: one posted MOVDIR64B.  The device raises if software
      overflows the queue (credit tracking is software's job).
    * SWQ: ENQCMD loop until accepted, each attempt paying the full
      non-posted round trip.  ``max_retries`` bounds the loop for
      tests; ``None`` retries forever like a spinning submitter.

    ``source`` tags the submitter for per-source reject/retry
    attribution on shared queues; retry counters are booked through
    :meth:`repro.dsa.wq.WorkQueue.record_retries` (the canonical metric
    naming) rather than assembled here.
    """
    return RuntimeOp(env, core, costs).for_submit(portal, descriptor, max_retries, source).run()


class DwqCreditTracker:
    """Software-side credit management for a dedicated WQ.

    MOVDIR64B is posted: hardware gives no feedback when a DWQ is
    full, so software must never submit more descriptors than the WQ
    has entries (the driver crashes the model loudly otherwise).  This
    helper implements the standard pattern: take a credit per submit,
    return it when the completion record is reaped.
    """

    def __init__(self, portal: Portal):
        if portal.mode is not WqMode.DEDICATED:
            raise ValueError("credit tracking is for dedicated WQs (SWQs retry)")
        self.portal = portal
        self._credits = portal.device.wq(portal.wq_id).size

    @property
    def available(self) -> int:
        return self._credits

    def try_acquire(self) -> bool:
        if self._credits <= 0:
            return False
        self._credits -= 1
        return True

    def release(self) -> None:
        size = self.portal.device.wq(self.portal.wq_id).size
        if self._credits >= size:
            raise RuntimeError("credit released without a matching acquire")
        self._credits += 1

    def submit_with_credit(
        self,
        env: Environment,
        core: CpuCore,
        descriptor: Descriptor,
        costs: InstructionCosts = DEFAULT_COSTS,
        poll_ns: float = 50.0,
    ) -> Generator:
        """Wait for a credit if necessary, then MOVDIR64B."""
        while not self.try_acquire():
            yield core.spend(CycleCategory.WAIT_SPIN, poll_ns)
        yield from submit(env, core, self.portal, descriptor, costs)
