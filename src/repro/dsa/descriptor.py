"""Work descriptors, batch descriptors, and completion records.

A work descriptor is the 64-byte unit software submits through a
portal (paper §3.2).  The model keeps the architecturally meaningful
fields plus timing probes used by the latency-breakdown experiments
(Fig 5): when each lifecycle step happened.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.dsa.dif import DifContext
from repro.dsa.errors import StatusCode
from repro.dsa.opcodes import DescriptorFlags, MAX_BATCH_SIZE, MAX_TRANSFER_SIZE, Opcode

#: Flag bits as plain ``int`` masks: ``IntFlag`` ``&`` runs Python-level
#: enum code, about ten times an ``int`` mask's cost per descriptor.
_CACHE_CONTROL = int(DescriptorFlags.CACHE_CONTROL)
_BLOCK_ON_FAULT = int(DescriptorFlags.BLOCK_ON_FAULT)

#: Opcode classes :meth:`WorkDescriptor.validate` checks against.
_UNSIZED_OPCODES = frozenset({Opcode.NOOP, Opcode.DRAIN, Opcode.BATCH})
_PATTERN_OPCODES = frozenset({Opcode.FILL, Opcode.COMPARE_PATTERN})
_DIF_OPCODES = frozenset(
    {Opcode.DIF_CHECK, Opcode.DIF_INSERT, Opcode.DIF_STRIP, Opcode.DIF_UPDATE}
)

#: Architectural size of one work descriptor in bytes.
DESCRIPTOR_BYTES = 64
#: Architectural size of one completion record in bytes.
COMPLETION_RECORD_BYTES = 32


@dataclass(slots=True)
class CompletionRecord:
    """What the device writes back when a descriptor finishes."""

    status: StatusCode = StatusCode.NONE
    bytes_completed: int = 0
    #: Operation-specific result: CRC value, compare verdict, delta size.
    result: int = 0
    fault_address: Optional[int] = None

    @property
    def done(self) -> bool:
        """True once the device has written any terminal status."""
        return self.status != StatusCode.NONE


@dataclass(slots=True)
class Timestamps:
    """Lifecycle probe points for the Fig 5 latency breakdown."""

    allocated: Optional[float] = None
    prepared: Optional[float] = None
    submitted: Optional[float] = None
    dispatched: Optional[float] = None
    completed: Optional[float] = None

    def wait_time(self) -> float:
        if self.submitted is None or self.completed is None:
            raise ValueError("descriptor lifecycle incomplete")
        return self.completed - self.submitted


@dataclass(slots=True)
class WorkDescriptor:
    """One 64-byte operation request.

    ``slots=True`` (here and on the record/timestamp members): a
    million-descriptor run allocates these in bulk, and slotted
    instances are both smaller (no per-object ``__dict__``) and faster
    to field-access in the submission hot path.
    """

    opcode: Opcode
    pasid: int = 0
    flags: DescriptorFlags = DescriptorFlags.REQUEST_COMPLETION | DescriptorFlags.BLOCK_ON_FAULT
    src: int = 0
    src2: int = 0
    dst: int = 0
    dst2: int = 0
    size: int = 0
    pattern: int = 0
    #: High half of a 16-byte pattern (Table 1: 8/16-byte patterns).
    pattern2: int = 0
    #: Pattern width in bytes: 8 (default) or 16.
    pattern_bytes: int = 8
    dif: Optional[DifContext] = None
    dif_new: Optional[DifContext] = None
    delta_max_size: int = 1 << 17
    #: For APPLY_DELTA: length in bytes of the delta blob at ``src``.
    delta_size: int = 0
    completion: CompletionRecord = field(default_factory=CompletionRecord)
    times: Timestamps = field(default_factory=Timestamps)
    #: Triggered by the device when the completion record is written.
    completion_event: Optional[object] = None
    #: Fabric-share weight, set by the arbiter from the WQ priority
    #: (the §3.4 QoS/traffic-class behaviour under port contention).
    dispatch_weight: float = 1.0
    #: Tracer track (timeline) id for this descriptor's lifecycle spans;
    #: -1 until tracing assigns one (see repro.obs.tracer).
    trace_track: int = -1

    def validate(self) -> Optional[StatusCode]:
        """Static descriptor checks the device performs before execution."""
        op = self.opcode
        if not isinstance(op, Opcode):
            return StatusCode.INVALID_OPCODE
        if op not in _UNSIZED_OPCODES:
            if self.size <= 0 or self.size > MAX_TRANSFER_SIZE:
                return StatusCode.INVALID_SIZE
        if op in _PATTERN_OPCODES:
            if not (0 <= self.pattern < 2**64 and 0 <= self.pattern2 < 2**64):
                return StatusCode.INVALID_FLAGS
            if self.pattern_bytes not in (8, 16):
                return StatusCode.INVALID_FLAGS
        if op in _DIF_OPCODES and self.dif is None:
            return StatusCode.INVALID_FLAGS
        return None

    @property
    def cache_control(self) -> bool:
        return (int(self.flags) & _CACHE_CONTROL) != 0

    @property
    def block_on_fault(self) -> bool:
        return (int(self.flags) & _BLOCK_ON_FAULT) != 0

    def clone_range(
        self, offset: int, size: int, pool: Optional["DescriptorPool"] = None
    ) -> "WorkDescriptor":
        """A fresh descriptor covering ``[offset, offset + size)``.

        This is how software resumes a partially completed BOF=0
        descriptor (paper §4.3): advance every address operand by the
        completed byte count and resubmit the remainder.  The clone gets
        its own completion record, timestamps, and completion event —
        the original's are already consumed — and inherits the flags,
        pattern, and QoS weight verbatim.  ``offset = 0`` with the full
        size is a plain resubmission clone (e.g. after a device reset).

        With ``pool``, the clone is built by recycling a released
        descriptor (and its record/timestamp members) instead of
        allocating four objects — the fault-retry storm in
        ``repro.runtime.recovery`` produces clones at line rate.
        """
        if offset < 0 or size <= 0 or offset + size > self.size:
            raise ValueError(
                f"clone_range [{offset}, {offset + size}) outside descriptor "
                f"of size {self.size}"
            )
        if pool is not None:
            recycled = pool.acquire()
            if recycled is not None:
                return self._clone_into(recycled, offset, size)
        return WorkDescriptor(
            opcode=self.opcode,
            pasid=self.pasid,
            flags=self.flags,
            src=self.src + offset if self.src else 0,
            src2=self.src2 + offset if self.src2 else 0,
            dst=self.dst + offset if self.dst else 0,
            dst2=self.dst2 + offset if self.dst2 else 0,
            size=size,
            pattern=self.pattern,
            pattern2=self.pattern2,
            pattern_bytes=self.pattern_bytes,
            dif=self.dif,
            dif_new=self.dif_new,
            delta_max_size=self.delta_max_size,
            delta_size=self.delta_size,
            dispatch_weight=self.dispatch_weight,
        )

    def _clone_into(
        self, target: "WorkDescriptor", offset: int, size: int
    ) -> "WorkDescriptor":
        """Rewrite ``target`` in place as this descriptor's range clone."""
        target.opcode = self.opcode
        target.pasid = self.pasid
        target.flags = self.flags
        target.src = self.src + offset if self.src else 0
        target.src2 = self.src2 + offset if self.src2 else 0
        target.dst = self.dst + offset if self.dst else 0
        target.dst2 = self.dst2 + offset if self.dst2 else 0
        target.size = size
        target.pattern = self.pattern
        target.pattern2 = self.pattern2
        target.pattern_bytes = self.pattern_bytes
        target.dif = self.dif
        target.dif_new = self.dif_new
        target.delta_max_size = self.delta_max_size
        target.delta_size = self.delta_size
        target.dispatch_weight = self.dispatch_weight
        return target


class DescriptorPool:
    """Bounded free list of :class:`WorkDescriptor` objects.

    A recovery loop retiring one clone per fault, or a generator
    resubmitting millions of one-shot descriptors, spends a measurable
    share of its time in allocation (a descriptor is four objects:
    itself, its completion record, its timestamps, plus the field
    defaults).  :meth:`release` parks a descriptor whose lifecycle is
    over; ``clone_range(..., pool=...)`` / :meth:`acquire` reuse it
    after scrubbing the consumed state in place.

    Callers own the proof that nothing else references a released
    descriptor — release is for clones the caller itself created and
    consumed, never for a descriptor handed in by outside code.
    """

    __slots__ = ("limit", "_free", "reuses", "released")

    def __init__(self, limit: int = 256):
        if limit < 0:
            raise ValueError(f"pool limit must be >= 0, got {limit}")
        self.limit = limit
        self._free: List[WorkDescriptor] = []
        self.reuses = 0
        self.released = 0

    def __len__(self) -> int:
        return len(self._free)

    def acquire(self) -> Optional[WorkDescriptor]:
        """A scrubbed parked descriptor, or None when the pool is empty."""
        if not self._free:
            return None
        self.reuses += 1
        return self._free.pop()

    def release(self, descriptor: WorkDescriptor) -> bool:
        """Park a spent descriptor for reuse; False when full (dropped).

        The consumed members are scrubbed here (not in acquire) so a
        parked descriptor never pins a completion event or fault
        address from its previous life.
        """
        if len(self._free) >= self.limit:
            return False
        completion = descriptor.completion
        completion.status = StatusCode.NONE
        completion.bytes_completed = 0
        completion.result = 0
        completion.fault_address = None
        times = descriptor.times
        times.allocated = None
        times.prepared = None
        times.submitted = None
        times.dispatched = None
        times.completed = None
        descriptor.completion_event = None
        descriptor.trace_track = -1
        self._free.append(descriptor)
        self.released += 1
        return True


@dataclass(slots=True)
class BatchDescriptor:
    """Descriptor pointing at an array of work descriptors (F2)."""

    descriptors: List[WorkDescriptor]
    pasid: int = 0
    flags: DescriptorFlags = DescriptorFlags.REQUEST_COMPLETION
    completion: CompletionRecord = field(default_factory=CompletionRecord)
    times: Timestamps = field(default_factory=Timestamps)
    #: Triggered by the device when the batch completion is written.
    completion_event: Optional[object] = None
    #: Fabric-share weight inherited by the batch's members.
    dispatch_weight: float = 1.0
    #: Tracer track (timeline) id; -1 until tracing assigns one.
    trace_track: int = -1

    def validate(self) -> Optional[StatusCode]:
        if not self.descriptors:
            return StatusCode.INVALID_SIZE
        if len(self.descriptors) > MAX_BATCH_SIZE:
            return StatusCode.INVALID_SIZE
        for descriptor in self.descriptors:
            if isinstance(descriptor, BatchDescriptor):
                return StatusCode.INVALID_OPCODE  # batches cannot nest
        return None

    @property
    def size(self) -> int:
        """Aggregate payload bytes across the batch."""
        return sum(d.size for d in self.descriptors)

    def __len__(self) -> int:
        return len(self.descriptors)
