"""Partial-completion recovery: resume BOF=0 descriptors after faults.

Paper §4.3 / Appendix B: with BLOCK_ON_FAULT=0 a faulting descriptor
comes back with ``PAGE_FAULT``, ``bytes_completed`` up to the faulting
page, and the faulting address.  Software is expected to *resolve* the
fault (touch the page so the OS maps it) and resubmit only the
remainder — redoing the whole transfer throws away the hardware's
progress, which is exactly the bug this module replaces in the DTO
layer.

:class:`RetryPolicy` bounds the loop: bounded exponential backoff
between attempts, an optional wall-clock deadline, and graceful
degradation to the calibrated software kernels when retries exhaust.
The loop runs as bare calendar entries on one
:class:`~repro.runtime.op.RuntimeOp` per operation:
:func:`recovery_op` builds it for callers that drive it without a
process (the fleet harness pushes ``op.start`` and waits on
``op.done``), and :func:`recover` returns the same object's generator
for ``yield from`` callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.cpu.core import CpuCore
from repro.dsa.descriptor import DescriptorPool, WorkDescriptor
from repro.dsa.errors import StatusCode
from repro.runtime.dml import Dml, DmlPath
from repro.runtime.op import RETRYABLE_STATUSES, RuntimeOp

__all__ = [
    "RETRYABLE_STATUSES",
    "RecoveryResult",
    "RetryPolicy",
    "recover",
    "recovery_op",
]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try before giving up on the hardware path."""

    #: Failed hardware attempts allowed after the first one.
    max_retries: int = 3
    #: First backoff sleep (ns); doubles (by default) per retry.
    backoff_base_ns: float = 1_000.0
    backoff_multiplier: float = 2.0
    #: Ceiling on any single backoff sleep (ns).
    backoff_cap_ns: float = 64_000.0
    #: Optional wall-clock budget (ns) for the whole recovery, measured
    #: from the first submission; ``None`` = unbounded.
    deadline_ns: Optional[float] = None
    #: CPU time to touch (demand-map) the faulting page before a retry.
    touch_page_ns: float = 600.0
    #: When retries exhaust: finish the tail on the software kernels
    #: (True) or surface the failure status to the caller (False).
    degrade_to_software: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_base_ns < 0 or self.backoff_cap_ns < 0:
            raise ValueError("backoff parameters must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1: {self.backoff_multiplier}"
            )
        if self.deadline_ns is not None and self.deadline_ns <= 0:
            raise ValueError(f"deadline_ns must be positive: {self.deadline_ns}")
        if self.touch_page_ns < 0:
            raise ValueError(f"touch_page_ns must be >= 0: {self.touch_page_ns}")

    def backoff_ns(self, attempt: int) -> float:
        """Sleep before retry ``attempt`` (1-based), capped."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(
            self.backoff_cap_ns,
            self.backoff_base_ns * self.backoff_multiplier ** (attempt - 1),
        )


@dataclass
class RecoveryResult:
    """Accounting for one recovered operation."""

    status: StatusCode
    #: Hardware submissions issued (first try + resumes).
    attempts: int = 1
    #: Retryable completions observed (faults + resets).
    faults: int = 0
    #: Bytes the accelerator finished across all attempts.
    bytes_hardware: int = 0
    #: Bytes finished by the software kernels after degradation.
    bytes_software: int = 0
    backoff_ns_total: float = 0.0
    degraded: bool = False
    #: Resubmissions that landed on a *different* device after a
    #: ``DEVICE_DISABLED`` completion (fleet failover path).
    reroutes: int = 0


def recovery_op(
    dml: Dml,
    core: CpuCore,
    descriptor: WorkDescriptor,
    policy: RetryPolicy = RetryPolicy(),
    in_llc: bool = False,
    pool: Optional[DescriptorPool] = None,
    scheduler=None,
    socket: Optional[int] = None,
) -> RuntimeOp:
    """The :func:`recover` loop as a :class:`~repro.runtime.op.RuntimeOp`.

    Nothing runs until ``op.start()`` (push it with
    ``env.call_in(0, op.start)``); ``op.done`` then succeeds with the
    :class:`RecoveryResult` at the instant a ``recover`` process would
    have returned it.
    """
    return RuntimeOp(dml.env, core, dml.costs).for_recover(
        dml,
        descriptor,
        RecoveryResult(status=StatusCode.NONE),
        policy,
        DmlPath.HARDWARE,
        in_llc=in_llc,
        pool=pool,
        scheduler=scheduler,
        socket=socket,
    )


def recover(
    dml: Dml,
    core: CpuCore,
    descriptor: WorkDescriptor,
    policy: RetryPolicy = RetryPolicy(),
    in_llc: bool = False,
    pool: Optional[DescriptorPool] = None,
    scheduler=None,
    socket: Optional[int] = None,
) -> Generator:
    """Run ``descriptor`` on hardware, resuming across faults.

    Resumable opcodes (:data:`~repro.dsa.opcodes.RESUMABLE_OPCODES`)
    continue from ``bytes_completed``; result-accumulating ones restart
    from offset 0.  The original descriptor's completion record always
    carries the final outcome (total ``bytes_completed`` on success),
    so callers keep polling the object they built.  Returns a
    :class:`RecoveryResult`.

    With ``pool``, the resume clones this loop creates are recycled
    through it: each retry's spent clone (which only this loop ever
    references — the caller polls ``descriptor``) is released before
    the next one is built, so a long fault storm allocates O(1)
    descriptors instead of O(retries).

    With ``scheduler`` (a :class:`repro.fleet.FleetScheduler`), a
    ``DEVICE_DISABLED`` completion *re-routes* instead of resubmitting
    to the same dead portal: the next attempt selects a live portal
    excluding the failed device (``socket`` biases NUMA-aware
    policies), and per-device ``fleet.<dev>.failover.*`` counters book
    where each descriptor landed.  When no live portal remains — with
    or without a scheduler — the tail degrades straight to the software
    kernels rather than stalling.
    """
    return recovery_op(dml, core, descriptor, policy, in_llc, pool, scheduler, socket).run()
