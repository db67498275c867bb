"""DML-like high-level data-mover API (paper §5, "Software libraries").

Intel DML wraps descriptor management behind job objects: callers ask
for an operation, the library prepares/submits descriptors, balances
load across the available WQs/devices, and falls back to software when
hardware is absent or the job is too small to benefit.  This model
keeps that contract: each call returns a generator (``yield from`` it
inside a simulation process) over one
:class:`~repro.runtime.op.RuntimeOp`, whose stages run as bare calendar
entries; :func:`repro.runtime.recovery.recovery_op` drives the same
hardware path without a process.
"""

from __future__ import annotations

import enum
from typing import Collection, Generator, List, Optional

from repro.cpu.core import CpuCore
from repro.cpu.instructions import InstructionCosts
from repro.cpu.swlib import SoftwareKernels
from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.dif import DifContext
from repro.dsa.errors import StatusCode
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.mem.address import AddressSpace, Buffer
from repro.runtime.driver import Portal
from repro.runtime.op import RuntimeOp, WaitMode
from repro.runtime.wait import wait_for
from repro.sim.engine import Environment

#: ``make_descriptor``'s flags by ``(block_on_fault, cache_control)``,
#: built at import so no descriptor pays for ``IntFlag`` arithmetic.
_DESCRIPTOR_FLAGS = {
    (block_on_fault, cache_control): DescriptorFlags.REQUEST_COMPLETION
    | (DescriptorFlags.BLOCK_ON_FAULT if block_on_fault else DescriptorFlags.NONE)
    | (DescriptorFlags.CACHE_CONTROL if cache_control else DescriptorFlags.NONE)
    for block_on_fault in (False, True)
    for cache_control in (False, True)
}


class DmlPath(enum.Enum):
    """Execution-path request, mirroring DML's path selector."""

    HARDWARE = "hardware"
    SOFTWARE = "software"
    AUTO = "auto"


class DmlJob:
    """Handle for one in-flight (or finished) DML operation."""

    def __init__(self, descriptor, portal: Optional[Portal], software: bool):
        self.descriptor = descriptor
        self.portal = portal
        self.software = software

    @property
    def completion(self):
        return self.descriptor.completion

    @property
    def done(self) -> bool:
        return self.descriptor.completion.done


class Dml:
    """The library instance an application links against."""

    def __init__(
        self,
        env: Environment,
        portals: List[Portal],
        kernels: Optional[SoftwareKernels] = None,
        costs: Optional[InstructionCosts] = None,
        space: Optional[AddressSpace] = None,
        auto_threshold: int = 4096,
        wait_mode: WaitMode = WaitMode.UMWAIT,
        scheduler=None,
    ):
        if auto_threshold < 0:
            raise ValueError(f"negative auto threshold: {auto_threshold}")
        self.env = env
        self.portals = list(portals)
        self.kernels = kernels or SoftwareKernels()
        self.costs = costs or InstructionCosts()
        self.space = space
        self.auto_threshold = auto_threshold
        self.wait_mode = wait_mode
        #: Optional cross-device placement hook: anything with a
        #: ``select(socket=..., exclude=...) -> Portal`` method (see
        #: :class:`repro.fleet.FleetScheduler`) replaces the built-in
        #: round robin for portal selection.
        self.scheduler = scheduler
        self._round_robin = 0
        self.jobs_hardware = 0
        self.jobs_software = 0

    # -- descriptor construction -------------------------------------------------
    def make_descriptor(
        self,
        opcode: Opcode,
        size: int,
        src: Optional[Buffer] = None,
        src2: Optional[Buffer] = None,
        dst: Optional[Buffer] = None,
        dst2: Optional[Buffer] = None,
        pattern: int = 0,
        dif: Optional[DifContext] = None,
        dif_new: Optional[DifContext] = None,
        delta_size: int = 0,
        cache_control: bool = False,
        block_on_fault: bool = True,
    ) -> WorkDescriptor:
        """Build a descriptor over library-managed buffers.

        ``block_on_fault=False`` selects the BOF=0 contract: a page
        fault aborts the descriptor with a partial completion that
        software resumes (see :mod:`repro.runtime.recovery`), instead
        of stalling the engine for the fault-service time (§4.3).
        """
        flags = _DESCRIPTOR_FLAGS[bool(block_on_fault), bool(cache_control)]
        pasid = 0
        for buffer in (src, src2, dst, dst2):
            if buffer is not None:
                pasid = buffer.pasid
                break
        return WorkDescriptor(
            opcode=opcode,
            pasid=pasid,
            flags=flags,
            src=src.va if src else 0,
            src2=src2.va if src2 else 0,
            dst=dst.va if dst else 0,
            dst2=dst2.va if dst2 else 0,
            size=size,
            pattern=pattern,
            dif=dif,
            dif_new=dif_new,
            delta_size=delta_size,
        )

    @staticmethod
    def make_batch(descriptors: List[WorkDescriptor]) -> BatchDescriptor:
        if not descriptors:
            raise ValueError("batch needs at least one descriptor")
        pasid = descriptors[0].pasid
        for position, descriptor in enumerate(descriptors[1:], start=1):
            if descriptor.pasid != pasid:
                raise ValueError(
                    f"mixed-PASID batch: descriptor 0 carries PASID {pasid} but "
                    f"descriptor {position} carries PASID {descriptor.pasid}; a "
                    "batch translates under a single address space"
                )
        return BatchDescriptor(descriptors=descriptors, pasid=pasid)

    # -- load balancing -------------------------------------------------------------
    def _next_portal(self, exclude: Collection[str] = ()) -> Portal:
        """Pick the next live portal (round robin over enabled devices).

        Portals whose device was taken down via ``IdxdDriver.disable``
        are skipped; ``exclude`` additionally masks named devices (the
        failover path excludes the device that just failed).  Raises
        ``RuntimeError`` only when *no* portal is live.
        """
        if self.scheduler is not None:
            return self.scheduler.select(exclude=exclude)
        if not self.portals:
            raise RuntimeError("DML instance has no hardware portals")
        count = len(self.portals)
        for offset in range(count):
            portal = self.portals[(self._round_robin + offset) % count]
            if portal.device.enabled and portal.device.name not in exclude:
                self._round_robin = (self._round_robin + offset + 1) % count
                return portal
        raise RuntimeError("no live hardware portal (all devices disabled)")

    @property
    def has_hardware(self) -> bool:
        if self.scheduler is not None:
            return bool(self.scheduler.live_portals())
        return any(portal.device.enabled for portal in self.portals)

    def _choose_path(self, path: DmlPath, size: int) -> bool:
        """True → hardware."""
        if path is DmlPath.HARDWARE:
            if not self.has_hardware:
                raise RuntimeError("hardware path requested but no portals available")
            return True
        if path is DmlPath.SOFTWARE:
            return False
        return self.has_hardware and size >= self.auto_threshold

    # -- async API ----------------------------------------------------------------------
    def submit_async(
        self,
        core: CpuCore,
        descriptor,
        portal: Optional[Portal] = None,
        prepare: bool = True,
    ) -> Generator:
        """Prepare + submit; returns a :class:`DmlJob` immediately."""
        portal = portal or self._next_portal()
        op = RuntimeOp(self.env, core, self.costs)
        yield from op.for_submit(portal, descriptor, prepare=prepare).run()
        self.jobs_hardware += 1
        return DmlJob(descriptor, portal, software=False)

    def wait(self, core: CpuCore, job: DmlJob) -> Generator:
        """Block until the job finishes; returns its status code."""
        if job.software:
            return job.completion.status
        yield from wait_for(self.env, core, job.descriptor, self.wait_mode, self.costs)
        return job.completion.status

    # -- sync API ------------------------------------------------------------------------
    def execute(
        self,
        core: CpuCore,
        descriptor: WorkDescriptor,
        path: DmlPath = DmlPath.AUTO,
        in_llc: bool = False,
        portal: Optional[Portal] = None,
    ) -> Generator:
        """Synchronous operation; returns the final status code.

        ``portal`` pins the submission to one WQ (the failover path
        re-routes a failed descriptor to a specific surviving device);
        ``None`` keeps the load-balanced selection.
        """
        op = RuntimeOp(self.env, core, self.costs)
        return op.for_execute(self, descriptor, path, in_llc, portal).run()

    def run_software(
        self, core: CpuCore, descriptor: WorkDescriptor, in_llc: bool = False
    ) -> Generator:
        """Software fallback: calibrated kernel time + functional op."""
        return RuntimeOp(self.env, core, self.costs).for_software(self, descriptor, in_llc).run()

    def _buffers_backed(self, descriptor: WorkDescriptor) -> bool:
        addresses = (descriptor.src, descriptor.src2, descriptor.dst, descriptor.dst2)
        referenced = [va for va in addresses if va]
        if not referenced:
            return False
        return all(self.space.buffer_at(va).backed for va in referenced)

    # -- high-level operation wrappers (the DML C API surface) ---------------------
    def mem_move(
        self,
        core: CpuCore,
        src: Buffer,
        dst: Buffer,
        size: int,
        path: DmlPath = DmlPath.AUTO,
    ) -> Generator:
        """``dml::mem_move``: copy ``size`` bytes."""
        descriptor = self.make_descriptor(Opcode.MEMMOVE, size, src=src, dst=dst)
        return (yield from self.execute(core, descriptor, path=path))

    def fill(
        self,
        core: CpuCore,
        dst: Buffer,
        size: int,
        pattern: int,
        path: DmlPath = DmlPath.AUTO,
    ) -> Generator:
        """``dml::fill``: write an 8-byte pattern across the region."""
        descriptor = self.make_descriptor(Opcode.FILL, size, dst=dst, pattern=pattern)
        return (yield from self.execute(core, descriptor, path=path))

    def compare(
        self,
        core: CpuCore,
        a: Buffer,
        b: Buffer,
        size: int,
        path: DmlPath = DmlPath.AUTO,
    ) -> Generator:
        """``dml::compare``: returns 0 when equal, 1 otherwise."""
        descriptor = self.make_descriptor(Opcode.COMPARE, size, src=a, src2=b)
        status = yield from self.execute(core, descriptor, path=path)
        return 0 if status is StatusCode.SUCCESS else 1

    def crc(
        self,
        core: CpuCore,
        src: Buffer,
        size: int,
        path: DmlPath = DmlPath.AUTO,
    ) -> Generator:
        """``dml::crc``: CRC32C of the region (in the completion record)."""
        descriptor = self.make_descriptor(Opcode.CRCGEN, size, src=src)
        yield from self.execute(core, descriptor, path=path)
        return descriptor.completion.result

    def dualcast(
        self,
        core: CpuCore,
        src: Buffer,
        dst1: Buffer,
        dst2: Buffer,
        size: int,
        path: DmlPath = DmlPath.AUTO,
    ) -> Generator:
        """``dml::dualcast``: copy to two destinations at once."""
        descriptor = self.make_descriptor(
            Opcode.DUALCAST, size, src=src, dst=dst1, dst2=dst2
        )
        return (yield from self.execute(core, descriptor, path=path))

    def create_delta(
        self,
        core: CpuCore,
        original: Buffer,
        modified: Buffer,
        delta: Buffer,
        size: int,
        path: DmlPath = DmlPath.AUTO,
    ) -> Generator:
        """``dml::create_delta``: returns the serialized delta size."""
        descriptor = self.make_descriptor(
            Opcode.CREATE_DELTA, size, src=original, src2=modified, dst=delta
        )
        yield from self.execute(core, descriptor, path=path)
        return descriptor.completion.result

    def apply_delta(
        self,
        core: CpuCore,
        delta: Buffer,
        target: Buffer,
        size: int,
        delta_size: int,
        path: DmlPath = DmlPath.AUTO,
    ) -> Generator:
        """``dml::apply_delta``: patch ``target`` with a delta record."""
        descriptor = self.make_descriptor(
            Opcode.APPLY_DELTA, size, src=delta, dst=target, delta_size=delta_size
        )
        return (yield from self.execute(core, descriptor, path=path))
