"""Completion waiting strategies: spin, UMWAIT, interrupt (paper §3.3, §4.4).

Each strategy books the waiting period into a different cycle category
on the waiting core, which is exactly what Fig 11 (UMWAIT cycle share)
measures.
"""

from __future__ import annotations

from typing import Generator, Optional, Union

from repro.cpu.core import CpuCore
from repro.cpu.instructions import InstructionCosts
from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.runtime.op import RuntimeOp, WaitMode
from repro.sim.engine import Environment

Descriptor = Union[WorkDescriptor, BatchDescriptor]

DEFAULT_COSTS = InstructionCosts()


def wait_for(
    env: Environment,
    core: CpuCore,
    descriptor: Descriptor,
    mode: WaitMode = WaitMode.UMWAIT,
    costs: InstructionCosts = DEFAULT_COSTS,
    max_wait_ns: Optional[float] = None,
) -> Generator:
    """Block until the descriptor completes; returns the wait time (ns).

    ``max_wait_ns`` models the ``IA32_UMWAIT_CONTROL`` TSC deadline for
    :attr:`WaitMode.UMWAIT`: the core wakes at the deadline even without
    a completion store, re-checks the monitored cacheline, and re-arms.
    Each armed deadline is a real calendar timer; when the completion
    lands first, the pending deadline is **cancelled**
    (:meth:`repro.sim.engine.Event.cancel`) instead of left to fire into
    a stale no-op.  ``None`` (the default) waits in one shot.
    """
    return RuntimeOp(env, core, costs).for_wait(descriptor, mode, max_wait_ns).run()
