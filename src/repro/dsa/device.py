"""The DSA device: portals, groups, engines, ATC, fabric port.

One :class:`DsaDevice` is one RCiEP instance (paper §3.2).  Multiple
devices can share a :class:`~repro.mem.system.MemorySystem` to model
the multi-instance scaling of Fig 10 — they contend for DRAM links and
for the LLC's DDIO partition, whose overflow triggers the leaky-DMA
regime.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.dsa.atc import DeviceAtc
from repro.dsa.config import DeviceConfig, DsaTimingParams
from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.engine import ProcessingEngine
from repro.dsa.errors import StatusCode
from repro.dsa.group import Group
from repro.dsa.opcodes import Opcode
from repro.dsa.wq import WorkQueue
from repro.mem.address import AddressSpace
from repro.mem.link import FairShareLink
from repro.mem.system import MemorySystem
from repro.sim.engine import Environment, Event

Descriptor = Union[WorkDescriptor, BatchDescriptor]


#: Opcodes whose destination stream is exactly ``size`` bytes.
_WRITES_SIZE = frozenset(
    {
        Opcode.MEMMOVE,
        Opcode.COPY_CRC,
        Opcode.FILL,
        Opcode.APPLY_DELTA,
        Opcode.DIF_INSERT,
        Opcode.DIF_STRIP,
        Opcode.DIF_UPDATE,
    }
)


def estimate_write_bytes(descriptor: Descriptor) -> int:
    """Destination bytes a descriptor will stream (leak accounting)."""
    if type(descriptor) is BatchDescriptor:
        return sum(estimate_write_bytes(d) for d in descriptor.descriptors)
    op = descriptor.opcode
    if op in _WRITES_SIZE:
        return descriptor.size
    if op is Opcode.DUALCAST:
        return 2 * descriptor.size
    if op is Opcode.CREATE_DELTA:
        return max(1, descriptor.size // 8)
    return 0


class DsaDevice:
    """One configured DSA instance attached to a memory system."""

    def __init__(
        self,
        env: Environment,
        memsys: MemorySystem,
        config: Optional[DeviceConfig] = None,
        timing: Optional[DsaTimingParams] = None,
        name: str = "dsa0",
        socket: int = 0,
    ):
        self.env = env
        self.memsys = memsys
        self.config = config or DeviceConfig.single()
        self.config.validate()
        self.timing = timing or DsaTimingParams()
        self.timing.validate()
        self.name = name
        self.socket = socket
        #: Lifecycle state mirrored by the driver: a directly constructed
        #: device is live; driver-registered ones stay down until
        #: :meth:`~repro.runtime.driver.IdxdDriver.enable`.  Schedulers
        #: (``Dml._next_portal``, ``repro.fleet``) consult this to skip
        #: dead portals, and engines abort dispatches against it.
        self.enabled = True
        self.atc = DeviceAtc(
            memsys.iommu,
            entries=self.timing.atc_entries,
            hit_latency=self.timing.atc_hit_ns,
            metrics=env.metrics,
            name=f"{name}.atc",
        )
        self.port = FairShareLink(env, self.timing.fabric_bandwidth, f"{name}.port")
        self._m_completed = env.metrics.counter(f"{name}.descriptors_completed")
        self._m_bytes = env.metrics.counter(f"{name}.bytes_processed")

        self._wqs: Dict[int, WorkQueue] = {
            wq_cfg.wq_id: WorkQueue(env, wq_cfg, owner=name) for wq_cfg in self.config.wqs
        }
        self.groups: Dict[int, Group] = {}
        for group_cfg in self.config.groups:
            group = Group(env, group_cfg, [self._wqs[i] for i in group_cfg.wq_ids])
            for engine_id in group_cfg.engine_ids:
                group.attach_engine(ProcessingEngine(self, group, engine_id))
            self.groups[group_cfg.group_id] = group

        self._spaces: Dict[int, AddressSpace] = {}
        #: Destination bytes submitted and not yet written, declared to
        #: the LLC as this device's streaming-write footprint (``name``
        #: is its LLC agent, see :attr:`agent`) on every change.
        self._inflight_write_bytes = 0.0
        self.descriptors_completed = 0
        self.bytes_processed = 0

    # -- address spaces ---------------------------------------------------------
    @property
    def agent(self) -> str:
        """LLC accounting identity of this device."""
        return self.name

    def attach_space(self, space: AddressSpace) -> None:
        """Register a process (PASID) with the device and IOMMU (F1)."""
        if space.pasid in self._spaces:
            return
        if not self.memsys.iommu.is_attached(space.pasid):
            self.memsys.iommu.attach(space.pasid, space.page_table)
        self._spaces[space.pasid] = space

    def space_for(self, pasid: int) -> AddressSpace:
        if pasid not in self._spaces:
            raise KeyError(
                f"PASID {pasid} not attached to {self.name}; call attach_space() first"
            )
        return self._spaces[pasid]

    # -- work queues --------------------------------------------------------------
    def wq(self, wq_id: int) -> WorkQueue:
        if wq_id not in self._wqs:
            raise KeyError(f"{self.name} has no WQ {wq_id}")
        return self._wqs[wq_id]

    @property
    def wqs(self) -> Dict[int, WorkQueue]:
        return dict(self._wqs)

    # -- submission ------------------------------------------------------------------
    def submit(self, descriptor: Descriptor, wq_id: int = 0, source: Optional[str] = None) -> bool:
        """Place a descriptor into a WQ (the portal write itself).

        Returns False when a shared WQ is full (ENQCMD retry status).
        Instruction-cost accounting (MOVDIR64B vs ENQCMD) lives in
        :mod:`repro.runtime.submit`; this is the device-side effect.
        ``source`` tags the submitter for per-tenant reject attribution
        on shared queues (see :meth:`repro.dsa.wq.WorkQueue.submit`).
        """
        if descriptor.completion_event is None:
            descriptor.completion_event = Event(self.env)
        wq = self._wqs.get(wq_id)
        if wq is None:
            wq = self.wq(wq_id)  # raises, naming the device
        if wq.submit(descriptor, source):
            inflight = self._inflight_write_bytes = (
                self._inflight_write_bytes + estimate_write_bytes(descriptor)
            )
            self.memsys.llc.register_io_stream(
                self.name, inflight, self.timing.fabric_bandwidth if inflight > 0 else 0.0
            )
            return True
        return False

    def _update_llc_pressure(self) -> None:
        """Declare the in-flight write bytes as this device's LLC stream
        (:meth:`SharedLLC.register_io_stream`, which the submit and
        completion paths call directly)."""
        inflight = self._inflight_write_bytes
        self.memsys.llc.register_io_stream(
            self.name, inflight, self.timing.fabric_bandwidth if inflight > 0 else 0.0
        )

    def submit_raw(self, image: bytes, wq_id: int = 0) -> "WorkDescriptor":
        """Submit a 64-byte portal image (what MOVDIR64B writes).

        Decodes the wire format and enqueues the descriptor; returns
        the decoded object so callers can poll its completion record.
        """
        from repro.dsa.wire import unpack_descriptor

        descriptor = unpack_descriptor(image)
        self.submit(descriptor, wq_id)
        return descriptor

    # -- telemetry (what the PCM library exposes, §5) --------------------------------------
    def telemetry(self) -> Dict[str, object]:
        """Hardware-counter-style snapshot of this instance.

        Mirrors what Intel PCM reads from a DSA instance: request
        counts, inbound/outbound traffic, plus model-level extras
        (ATC hit rate, WQ occupancy, port utilization).
        """
        return {
            "descriptors_completed": self.descriptors_completed,
            "bytes_processed": self.bytes_processed,
            "port_bytes": self.port.bytes_completed,
            "atc_hit_rate": self.atc.hit_rate,
            "wq_occupancy": {wq_id: wq.occupancy for wq_id, wq in self._wqs.items()},
            "wq_enqueued": {wq_id: wq.enqueued for wq_id, wq in self._wqs.items()},
            "wq_rejected": {wq_id: wq.rejected for wq_id, wq in self._wqs.items()},
            "inflight_write_bytes": self._inflight_write_bytes,
        }

    # -- lifecycle (called by the driver) ------------------------------------------------
    def abort_queued(self, status: StatusCode = StatusCode.DEVICE_DISABLED) -> int:
        """Abort every descriptor still sitting in a WQ (device disable).

        Queued work never reached an engine, so no bytes moved: each
        completion record reports ``status`` with ``bytes_completed=0``
        and its waiters wake immediately — the recovery/fleet layer
        re-routes them to a surviving device or to software.  Returns
        the number of aborted descriptors.
        """
        aborted = 0
        for wq in self._wqs.values():
            while not wq.is_empty:
                descriptor = wq.pop()
                self._inflight_write_bytes = max(
                    0.0, self._inflight_write_bytes - estimate_write_bytes(descriptor)
                )
                self._abort_descriptor(descriptor, status)
                aborted += 1
        if aborted:
            self._update_llc_pressure()
            self.env.metrics.counter(f"{self.name}.disable_aborts").add(aborted)
        return aborted

    def _abort_descriptor(self, descriptor: Descriptor, status: StatusCode) -> None:
        if isinstance(descriptor, BatchDescriptor):
            for member in descriptor.descriptors:
                self._abort_descriptor(member, status)
        descriptor.completion.status = status
        descriptor.completion.bytes_completed = 0
        descriptor.times.completed = self.env.now
        event = descriptor.completion_event
        if event is not None and not event.triggered:
            event.succeed(descriptor)

    # -- completion (called by engines) --------------------------------------------------
    def _complete(self, descriptor: Descriptor) -> None:
        if type(descriptor) is WorkDescriptor:
            # Batch containers don't carry payload themselves: their
            # write bytes were added at submit and are drained here as
            # each member work descriptor completes.
            size = descriptor.size
            self.descriptors_completed += 1
            self.bytes_processed += size
            self._m_completed.value += 1
            self._m_bytes.value += size
            inflight = self._inflight_write_bytes = max(
                0.0, self._inflight_write_bytes - estimate_write_bytes(descriptor)
            )
            self.memsys.llc.register_io_stream(
                self.name, inflight, self.timing.fabric_bandwidth if inflight > 0 else 0.0
            )
        event = descriptor.completion_event
        if event is not None and not event._triggered:
            event.succeed(descriptor)

    def _complete_unrun(self, descriptor: Descriptor) -> None:
        """Complete a dispatched descriptor that never executed: an
        invalid batch, or any descriptor aborted at dispatch.

        A batch's write bytes otherwise drain as each member completes;
        here no member ran, so its whole estimate drains at once.
        """
        if isinstance(descriptor, BatchDescriptor):
            self._inflight_write_bytes = max(
                0.0, self._inflight_write_bytes - estimate_write_bytes(descriptor)
            )
            self._update_llc_pressure()
        self._complete(descriptor)
