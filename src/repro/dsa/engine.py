"""Processing engine: the unit that executes work descriptors.

The PE splits descriptor handling into a *serial* stage (dispatch +
descriptor-unit setup, one descriptor at a time) and a *pipelined* data
stage (translation, memory reads, fabric streaming, destination
writes) that overlaps across up to ``read_buffers_per_engine``
descriptors.  This split is what produces the paper's two regimes:

* synchronous offload pays the whole chain per descriptor (the ~4 KB
  crossover of Fig 2a and the break-even of Fig 6a);
* asynchronous offload amortizes everything but the serial stage, so a
  single PE saturates the 30 GB/s fabric at moderate sizes (Figs 3, 4)
  and small transfers scale with more PEs (Fig 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Tuple, TYPE_CHECKING

from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.errors import StatusCode
from repro.dsa.opcodes import DescriptorFlags, Opcode, RESUMABLE_OPCODES
from repro.dsa import ops as functional
from repro.faults.inject import active_injector
from repro.mem.address import AddressSpace, Buffer
from repro.mem.system import SAME_NODE_TURNAROUND_NS, TierKind
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dsa.device import DsaDevice
    from repro.dsa.group import Group


@dataclass
class IoDemand:
    """Byte movement a descriptor asks of the memory system.

    Entries are ``(buffer, va, nbytes)``: ``va`` is the descriptor's
    operand address, which may sit *inside* ``buffer`` — a resumed
    BOF=0 clone starts at the fault offset, so translation must cover
    ``[va, va + nbytes)``, not the containing buffer's base.
    """

    reads: List[Tuple[Buffer, int, int]] = field(default_factory=list)
    writes: List[Tuple[Buffer, int, int]] = field(default_factory=list)

    @property
    def read_bytes(self) -> int:
        return sum(nbytes for _buf, _va, nbytes in self.reads)

    @property
    def write_bytes(self) -> int:
        return sum(nbytes for _buf, _va, nbytes in self.writes)

    @property
    def port_bytes(self) -> int:
        """Fabric demand: the larger of the two directions."""
        return max(self.read_bytes, self.write_bytes)


def io_demand(work: WorkDescriptor, space: AddressSpace) -> IoDemand:
    """Resolve a descriptor's buffers and compute its byte movement."""
    demand = IoDemand()
    op, size = work.opcode, work.size

    def read(va: int, nbytes: int) -> None:
        if nbytes > 0:
            demand.reads.append((space.buffer_at(va), va, nbytes))

    def write(va: int, nbytes: int) -> None:
        if nbytes > 0:
            demand.writes.append((space.buffer_at(va), va, nbytes))

    if op in (Opcode.NOOP, Opcode.DRAIN, Opcode.CACHE_FLUSH):
        return demand
    if op in (Opcode.MEMMOVE, Opcode.COPY_CRC):
        read(work.src, size)
        write(work.dst, size)
    elif op is Opcode.DUALCAST:
        read(work.src, size)
        write(work.dst, size)
        write(work.dst2, size)
    elif op is Opcode.FILL:
        write(work.dst, size)
    elif op in (Opcode.COMPARE, Opcode.CREATE_DELTA):
        read(work.src, size)
        read(work.src2, size)
        if op is Opcode.CREATE_DELTA:
            # Delta size is data-dependent; charge an eighth of the
            # source as a representative record (one entry per ~8 chunks).
            write(work.dst, max(1, size // 8))
    elif op is Opcode.APPLY_DELTA:
        read(work.src, max(1, work.delta_size))
        read(work.dst, size)
        write(work.dst, size)
    elif op in (Opcode.COMPARE_PATTERN, Opcode.CRCGEN, Opcode.DIF_CHECK):
        read(work.src, size)
    elif op in (Opcode.DIF_INSERT, Opcode.DIF_STRIP, Opcode.DIF_UPDATE):
        read(work.src, size)
        write(work.dst, size)
    else:  # pragma: no cover - exhaustiveness guard
        raise NotImplementedError(f"no IO profile for {op!r}")
    return demand


def _all_backed(operands: List[Tuple[Buffer, int, int]]) -> bool:
    """True when there are operands and every one's buffer holds bytes."""
    return bool(operands) and all(buffer.backed for buffer, _va, _n in operands)


class ProcessingEngine:
    """One PE: serial descriptor unit + pipelined data movers."""

    def __init__(self, device: "DsaDevice", group: "Group", engine_id: int):
        self.device = device
        self.group = group
        self.engine_id = engine_id
        self.env: Environment = device.env
        timing = device.timing
        buffers = group.config.read_buffers_per_engine or timing.read_buffers_per_engine
        self.read_buffers = Resource(self.env, capacity=buffers)
        self.descriptors_processed = 0
        self._inflight: List[Event] = []
        self.agent = f"{device.name}.pe{engine_id}"
        self._m_data_phases = self.env.metrics.counter(f"{self.agent}.data_phases")
        self._process = self.env.process(self._run(), name=f"{device.name}.pe{engine_id}")

    # -- main loop ------------------------------------------------------------
    def _run(self) -> Generator:
        timing = self.device.timing
        while True:
            descriptor = yield self.group.arbiter.get()
            descriptor.times.dispatched = self.env.now
            yield self.env.timeout(timing.dispatch_ns)
            if not self.device.enabled:
                # The driver disabled the device between enqueue and
                # dispatch (its WQ drain raced this arbiter pop).
                yield from self._abort_reset(descriptor, counter="disable_aborts")
                continue
            injector = active_injector()
            if injector is not None and injector.device_reset(self.env.now):
                yield from self._abort_reset(descriptor)
                continue
            if isinstance(descriptor, BatchDescriptor):
                yield from self._run_batch(descriptor)
            else:
                yield from self._admit(descriptor, batch_events=None)

    def _abort_reset(self, descriptor, counter: str = "reset_aborts") -> Generator:
        """Transient reset or driver disable: abort mid-flight, drop the ATC.

        Software sees ``DEVICE_DISABLED`` in the completion record and
        is expected to resubmit from scratch (the recovery layer treats
        it as retryable with ``bytes_completed = 0``).
        """
        timing = self.device.timing
        self.device.atc.flush()
        descriptor.completion.status = StatusCode.DEVICE_DISABLED
        descriptor.completion.bytes_completed = 0
        self.env.metrics.counter(f"{self.device.name}.{counter}").add()
        if self.env.tracer.enabled and descriptor.trace_track >= 0:
            self.env.tracer.instant(
                self.env.now, "device_reset", "execute", self.agent, descriptor.trace_track
            )
        yield self.env.timeout(timing.completion_write_ns)
        descriptor.times.completed = self.env.now
        self.device._complete(descriptor)

    def _run_batch(self, batch: BatchDescriptor) -> Generator:
        """Batch unit: fetch the descriptor array, then stream it (F2)."""
        timing = self.device.timing
        invalid = batch.validate()
        if invalid is not None:
            batch.completion.status = invalid
            yield self.env.timeout(timing.completion_write_ns)
            batch.times.completed = self.env.now
            self.device._complete(batch)
            return
        fetch = (
            timing.batch_fetch_base_ns
            + timing.batch_fetch_per_descriptor_ns * len(batch.descriptors)
        )
        tracer = self.env.tracer
        if tracer.enabled and batch.trace_track >= 0:
            tracer.complete(
                self.env.now,
                fetch,
                "batch_fetch",
                "batch",
                self.agent,
                batch.trace_track,
                {"descriptors": len(batch.descriptors)},
            )
        yield self.env.timeout(fetch)
        events: List[Event] = []
        for work in batch.descriptors:
            work.dispatch_weight = batch.dispatch_weight
            yield from self._admit(work, batch_events=events)
        # The engine moves on to the next WQ descriptor; a side process
        # writes the batch completion once every member has finished.
        self.env.process(
            self._finish_batch(batch, events),
            name=f"{self.device.name}.pe{self.engine_id}.batch",
        )

    def _finish_batch(self, batch: BatchDescriptor, events: List[Event]) -> Generator:
        timing = self.device.timing
        if events:
            yield self.env.all_of(events)
        failed = sum(1 for d in batch.descriptors if not d.completion.status.is_success)
        batch.completion.status = StatusCode.BATCH_FAILED if failed else StatusCode.SUCCESS
        batch.completion.bytes_completed = len(batch.descriptors) - failed
        yield self.env.timeout(timing.completion_write_ns)
        batch.times.completed = self.env.now
        self.device._complete(batch)

    def _admit(self, work: WorkDescriptor, batch_events) -> Generator:
        """Serial stage; then hand off to a pipelined data phase."""
        timing = self.device.timing
        yield self.env.timeout(timing.pe_setup_ns)
        invalid = work.validate()
        if invalid is not None:
            work.completion.status = invalid
            yield self.env.timeout(timing.completion_write_ns)
            work.times.completed = self.env.now
            self.device._complete(work)
            return
        if work.opcode is Opcode.DRAIN:
            # Drain: complete only after everything already dispatched
            # to this engine has finished.
            pending = [event for event in self._inflight if not event.triggered]
            if pending:
                yield self.env.all_of(pending)
            work.completion.status = StatusCode.SUCCESS
            yield self.env.timeout(timing.completion_write_ns)
            work.times.completed = self.env.now
            self.device._complete(work)
            return
        if work.flags & DescriptorFlags.FENCE and batch_events:
            yield self.env.all_of(list(batch_events))
        yield self.read_buffers.request()  # stall when the pipeline is full
        data_phase = self.env.process(
            self._data_phase(work), name=f"{self.device.name}.pe{self.engine_id}.data"
        )
        self._inflight = [e for e in self._inflight if not e.triggered]
        self._inflight.append(data_phase)
        if batch_events is not None:
            batch_events.append(data_phase)

    # -- pipelined data stage ----------------------------------------------------
    def _data_phase(self, work: WorkDescriptor) -> Generator:
        device = self.device
        timing = device.timing
        env = self.env
        tracer = env.tracer
        traced = tracer.enabled and work.trace_track >= 0
        agent, track = self.agent, work.trace_track
        try:
            if traced:
                tracer.begin(env.now, "translate", "translate", agent, track)
            space = device.space_for(work.pasid)
            try:
                demand = io_demand(work, space)
            except KeyError:
                # Address not mapped in this PASID's space: the IOMMU
                # reports an unrecoverable translation fault.
                work.completion.status = StatusCode.PAGE_FAULT
                work.completion.fault_address = work.src or work.dst
                if traced:
                    tracer.instant(env.now, "unmapped_address", "translate", agent, track)
                    tracer.end(env.now, "translate", "translate", agent, track)
                yield env.timeout(timing.completion_write_ns)
                work.times.completed = env.now
                device._complete(work)
                return

            # Remote-socket operands translate at their home socket's
            # IOMMU: a UPI round trip plus queueing behind other remote
            # translations (fleet platforms only — see
            # MemorySystem.ats_acquire).
            operands = demand.reads + demand.writes
            memsys = device.memsys
            remote_homes: Tuple[int, ...] = ()
            if memsys.model_ats_contention and memsys.topology.sockets > 1:
                homes = {
                    memsys.topology.socket_of(buffer.node)
                    for buffer, _va, _nbytes in operands
                }
                homes.discard(device.socket)
                remote_homes = tuple(sorted(homes))
            ats_ns = (
                memsys.ats_acquire(device.socket, remote_homes) if remote_homes else 0.0
            )

            # Address translation: first page on the critical path,
            # page faults stall for their full service time (BOF=1) or
            # abort the descriptor with a partial completion (BOF=0).
            translate_ns = 0.0
            total_faults = 0
            if work.block_on_fault:
                for _buffer, va, nbytes in operands:
                    latency, faults = device.atc.translate_range(
                        work.pasid, va, nbytes
                    )
                    translate_ns = max(translate_ns, latency)
                    total_faults += faults
            else:
                fault_offset = None
                fault_va = None
                for _buffer, va, nbytes in operands:
                    latency, faults, first_fault = device.atc.translate_range_partial(
                        work.pasid, va, nbytes
                    )
                    translate_ns = max(translate_ns, latency)
                    if faults:
                        offset = min(nbytes, max(0, first_fault - va))
                        if fault_offset is None or offset < fault_offset:
                            fault_offset = offset
                            fault_va = first_fault
                if fault_offset is not None:
                    yield from self._fault_abort(
                        work, space, demand, operands, translate_ns + ats_ns,
                        fault_offset, fault_va,
                    )
                    if remote_homes:
                        memsys.ats_release(remote_homes)
                    return
            translate_ns += ats_ns
            if translate_ns:
                yield env.timeout(translate_ns)
            if remote_homes:
                memsys.ats_release(remote_homes)
            if traced:
                tracer.end(
                    env.now,
                    "translate",
                    "translate",
                    agent,
                    track,
                    {"faults": total_faults} if total_faults else None,
                )
                tracer.begin(
                    env.now,
                    "execute",
                    "execute",
                    agent,
                    track,
                    {"opcode": work.opcode.name, "size": work.size},
                )

            if work.opcode is Opcode.CACHE_FLUSH:
                yield env.timeout(work.size / timing.cache_flush_bandwidth)
                self._finish_functional(work, space, operands)
                yield env.timeout(timing.completion_write_ns)
                work.times.completed = env.now
                if traced:
                    tracer.end(env.now, "execute", "execute", agent, track)
                device._complete(work)
                return

            # Source access latency (critical path, once per descriptor).
            read_ns = 0.0
            for buffer, _va, _nbytes in demand.reads:
                read_ns = max(
                    read_ns,
                    device.memsys.read_latency(
                        buffer.node, device.socket, in_llc=buffer.in_llc
                    ),
                )
            if read_ns:
                yield env.timeout(read_ns)

            flows, write_tail = self._build_flows(work, demand)
            if flows:
                yield env.all_of(flows)
            if write_tail:
                yield env.timeout(write_tail)

            self._finish_functional(work, space, operands)
            yield env.timeout(timing.completion_write_ns)
            work.times.completed = env.now
            if traced:
                tracer.end(
                    env.now,
                    "execute",
                    "execute",
                    agent,
                    track,
                    {"status": work.completion.status.name},
                )
            device._complete(work)
        finally:
            self.read_buffers.release()
            self.descriptors_processed += 1
            self._m_data_phases.add()

    def _fault_abort(
        self,
        work: WorkDescriptor,
        space: AddressSpace,
        demand: IoDemand,
        operands: List[Tuple[Buffer, int, int]],
        translate_ns: float,
        fault_offset: int,
        fault_va: int,
    ) -> Generator:
        """BOF=0 page fault: finish the head, report partial completion.

        The engine has moved ``fault_offset`` bytes when the faulting
        page's translation comes back unserviced; it writes a completion
        record with ``PAGE_FAULT``, ``bytes_completed`` up to the fault,
        and the faulting address, then moves on — fault resolution is
        software's job (paper §4.3: touch the page, resubmit the rest).
        """
        device = self.device
        timing = device.timing
        env = self.env
        tracer = env.tracer
        traced = tracer.enabled and work.trace_track >= 0
        agent, track = self.agent, work.trace_track
        if translate_ns:
            yield env.timeout(translate_ns)
        if traced:
            tracer.instant(
                env.now, "page_fault", "translate", agent, track, {"va": fault_va}
            )
            tracer.end(env.now, "translate", "translate", agent, track)
        if fault_offset > 0:
            # Move the completed head through the normal data path.
            head = IoDemand(
                reads=[(b, va, min(n, fault_offset)) for b, va, n in demand.reads],
                writes=[(b, va, min(n, fault_offset)) for b, va, n in demand.writes],
            )
            if traced:
                tracer.begin(
                    env.now, "execute", "execute", agent, track,
                    {"opcode": work.opcode.name, "partial": fault_offset},
                )
            read_ns = 0.0
            for buffer, _va, _nbytes in head.reads:
                read_ns = max(
                    read_ns,
                    device.memsys.read_latency(
                        buffer.node, device.socket, in_llc=buffer.in_llc
                    ),
                )
            if read_ns:
                yield env.timeout(read_ns)
            flows, write_tail = self._build_flows(work, head)
            if flows:
                yield env.all_of(flows)
            if write_tail:
                yield env.timeout(write_tail)
            if work.opcode in RESUMABLE_OPCODES and _all_backed(operands):
                functional.execute(work.clone_range(0, fault_offset), space)
            if traced:
                tracer.end(env.now, "execute", "execute", agent, track)
        work.completion.status = StatusCode.PAGE_FAULT
        work.completion.bytes_completed = fault_offset
        work.completion.fault_address = fault_va
        env.metrics.counter(f"{device.name}.partial_completions").add()
        yield env.timeout(timing.completion_write_ns)
        work.times.completed = env.now
        device._complete(work)

    def _build_flows(self, work: WorkDescriptor, demand: IoDemand):
        """Create the bandwidth flows for one descriptor's data."""
        device = self.device
        env = self.env
        memsys = device.memsys
        llc = memsys.llc
        flows: List[Event] = []
        port_bytes = float(demand.port_bytes)
        write_tail = 0.0

        read_nodes = set()
        for buffer, _va, nbytes in demand.reads:
            if buffer.in_llc:
                continue  # LLC sources don't touch the memory links
            read_nodes.add(buffer.node)
            flows.append(memsys.read_flow(buffer.node, nbytes, device.socket))

        for buffer, _va, nbytes in demand.writes:
            if work.cache_control or buffer.in_llc:
                # G3: allocate the destination into the LLC directly.
                llc.touch(device.agent, nbytes, io=False, now=env.now)
                write_tail = max(write_tail, llc.write_latency)
            elif llc.leaky:
                # Leaky-DMA regime: writes spill to DRAM and the write
                # path stalls the engine (Fig 10's per-device drop).
                port_bytes += nbytes * (device.timing.leaky_write_amplification - 1.0)
                flows.append(memsys.write_flow(buffer.node, nbytes, device.socket))
                write_tail = max(
                    write_tail,
                    memsys.write_latency(
                        buffer.node,
                        device.socket,
                        same_node_as_read=buffer.node in read_nodes,
                    ),
                )
            else:
                # Default DDIO path: absorbed by the LLC's IO ways.
                # Non-DRAM destinations (CXL, PMEM) must still reach
                # their medium, so their write links throttle the flow.
                llc.touch(device.agent, nbytes, io=True, now=env.now)
                node = memsys.node(buffer.node)
                if node.kind is not TierKind.DRAM:
                    flows.append(memsys.write_flow(buffer.node, nbytes, device.socket))
                    write_tail = max(
                        write_tail, memsys.write_latency(buffer.node, device.socket)
                    )
                else:
                    penalty = SAME_NODE_TURNAROUND_NS if buffer.node in read_nodes else 0.0
                    hop, _remote = memsys.topology.crossing_cost(device.socket, buffer.node)
                    write_tail = max(write_tail, llc.write_latency + penalty + hop)

        if port_bytes > 0:
            flows.append(device.port.transfer(port_bytes, weight=work.dispatch_weight))
        return flows, write_tail

    def _finish_functional(
        self,
        work: WorkDescriptor,
        space: AddressSpace,
        operands: List[Tuple[Buffer, int, int]],
    ):
        """Run the real byte operation when buffers are backed."""
        if _all_backed(operands):
            functional.execute(work, space)
        else:
            work.completion.status = StatusCode.SUCCESS
            work.completion.bytes_completed = work.size
