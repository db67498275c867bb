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

Both stages are fixed per-descriptor chains, so they run as bare
calendar entries (:meth:`~repro.sim.engine.Environment.call_in`) pushed
where a generator would have yielded an event, not as generator
processes (docs/PERFORMANCE.md §9, §11).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.errors import StatusCode
from repro.dsa.opcodes import DescriptorFlags, Opcode, RESUMABLE_OPCODES
from repro.dsa import ops as functional
from repro.faults import inject
from repro.mem.address import AddressSpace, Buffer
from repro.mem.system import SAME_NODE_TURNAROUND_NS, TierKind
from repro.sim.engine import Environment, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dsa.arbiter import Descriptor
    from repro.dsa.device import DsaDevice
    from repro.dsa.group import Group

#: Flag bits as plain ``int`` masks: ``IntFlag`` arithmetic runs
#: Python-level enum code, about ten times an ``int`` mask's cost.
_FENCE = int(DescriptorFlags.FENCE)
_CACHE_CONTROL = int(DescriptorFlags.CACHE_CONTROL)
_BLOCK_ON_FAULT = int(DescriptorFlags.BLOCK_ON_FAULT)


#: One operand: ``(buffer, va, nbytes)``.  ``va`` is the descriptor's
#: operand address, which may sit *inside* ``buffer`` — a resumed BOF=0
#: clone starts at the fault offset, so translation must cover
#: ``[va, va + nbytes)``, not the containing buffer's base.
Operand = Tuple[Buffer, int, int]


def io_demand(work: WorkDescriptor, space: AddressSpace) -> Tuple[List[Operand], List[Operand]]:
    """Resolve a descriptor's buffers: its ``(reads, writes)`` operands.

    A MEMMOVE or COPY_CRC, the common case, is resolved inline by
    :meth:`_DataPhase.start`; it gives the same operands as here.
    """
    op, size = work.opcode, work.size
    reads: List[Operand] = []
    writes: List[Operand] = []

    def read(va: int, nbytes: int) -> None:
        if nbytes > 0:
            reads.append((space.buffer_at(va), va, nbytes))

    def write(va: int, nbytes: int) -> None:
        if nbytes > 0:
            writes.append((space.buffer_at(va), va, nbytes))

    if op in (Opcode.NOOP, Opcode.DRAIN, Opcode.CACHE_FLUSH):
        return reads, writes
    if op is Opcode.DUALCAST:
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
    elif op in (
        Opcode.MEMMOVE,
        Opcode.COPY_CRC,
        Opcode.DIF_INSERT,
        Opcode.DIF_STRIP,
        Opcode.DIF_UPDATE,
    ):
        read(work.src, size)
        write(work.dst, size)
    else:  # pragma: no cover - exhaustiveness guard
        raise NotImplementedError(f"no IO profile for {op!r}")
    return reads, writes


class ProcessingEngine:
    """One PE: serial descriptor unit + pipelined data movers.

    Both stages are chains of callbacks, not generator processes: each
    stage pushes its next calendar entry — a bare entry carrying the
    next stage (a delay, the arbiter's hand-off, the read-buffer
    grant), or an ``all_of`` for waits on other descriptors' data
    phases.  The entries, and the order they are pushed in, are those
    a generator yielding the equivalent events would push, so the
    calendar pops in the same order (docs/PERFORMANCE.md §9, §11).
    The data phase's bandwidth flows report through the links'
    callback form and the phase counts them itself, pushing the entry
    an ``all_of`` over them would have (§10).  The serial stage handles
    one descriptor at a time, so its state lives on the engine; each
    data phase is a :class:`_DataPhase`.
    """

    def __init__(self, device: "DsaDevice", group: "Group", engine_id: int):
        self.device = device
        self.group = group
        self.engine_id = engine_id
        self.env: Environment = device.env
        timing = self.timing = device.timing
        #: Data phases that may overlap (the read-buffer pool's size),
        #: the buffers free now, and whether the serial stage waits for
        #: one — it holds one descriptor at a time, so never more than
        #: one waiter.
        self.read_buffers = group.config.read_buffers_per_engine or timing.read_buffers_per_engine
        self.free_read_buffers = self.read_buffers
        self._buffer_wait = False
        self.descriptors_processed = 0
        #: Data phases in flight, oldest first: what a DRAIN waits for.
        self._inflight: Dict[_DataPhase, None] = {}
        self.agent = f"{device.name}.pe{engine_id}"
        self._m_data_phases = self.env.metrics.counter(f"{self.agent}.data_phases")
        #: Destination node -> (is DRAM, UPI hop) for DDIO-path writes.
        self._ddio_routes: Dict[int, Tuple[bool, float]] = {}
        #: (source node, in LLC) -> unloaded read latency from this
        #: device's socket.
        self._read_latencies: Dict[Tuple[int, bool], float] = {}
        #: Operand nodes, in operand order -> the other sockets they
        #: live on, sorted (fleet platforms only; see _DataPhase.start).
        self._remote_homes: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        # Serial-stage state: the descriptor the arbiter handed over,
        # the work descriptor in setup, and a batch's remaining members
        # and admitted data phases' exit events.
        self._descriptor: Optional[Descriptor] = None
        self._work: Optional[WorkDescriptor] = None
        self._members: Optional[Iterator[WorkDescriptor]] = None
        self._batch_events: Optional[List[Event]] = None
        # Boot entry: the engine first asks the arbiter when this pops.
        self.env.call_in(0.0, self._idle)

    # -- serial stage ----------------------------------------------------------
    def _idle(self) -> None:
        """Wait for the arbiter's next descriptor: it sets
        ``_descriptor`` and pushes :meth:`_dispatch`."""
        self.group.arbiter.request(self)

    def _dispatch(self) -> None:
        env = self.env
        self._descriptor.times.dispatched = env._now
        env.call_in(self.timing.dispatch_ns, self._dispatched)

    def _dispatched(self) -> None:
        descriptor = self._descriptor
        if not self.device.enabled:
            # The driver disabled the device between enqueue and
            # dispatch (its WQ drain raced this arbiter pop).
            self._abort_reset(descriptor, counter="disable_aborts")
            return
        injector = inject.active
        if injector is not None and injector.device_reset(self.env._now):
            self._abort_reset(descriptor)
        elif type(descriptor) is BatchDescriptor:
            self._start_batch(descriptor)
        else:
            # The serial stage's setup (what _admit does for a member).
            self._work = descriptor
            self.env.call_in(self.timing.pe_setup_ns, self._set_up)

    def _abort_reset(self, descriptor: Descriptor, counter: str = "reset_aborts") -> None:
        """Transient reset or driver disable: abort mid-flight, drop the ATC.

        Software sees ``DEVICE_DISABLED`` in the completion record and
        is expected to resubmit from scratch (the recovery layer treats
        it as retryable with ``bytes_completed = 0``).
        """
        timing = self.timing
        self.device.atc.flush()
        descriptor.completion.status = StatusCode.DEVICE_DISABLED
        descriptor.completion.bytes_completed = 0
        self.env.metrics.counter(f"{self.device.name}.{counter}").add()
        if self.env.tracer.enabled and descriptor.trace_track >= 0:
            self.env.tracer.instant(
                self.env.now, "device_reset", "execute", self.agent, descriptor.trace_track
            )
        self.env.call_in(timing.completion_write_ns, self._descriptor_written)

    def _descriptor_written(self) -> None:
        """Completion record of the dispatched descriptor written by the
        serial stage: it never executed (an abort, or an invalid batch)."""
        descriptor = self._descriptor
        descriptor.times.completed = self.env._now
        self.device._complete_unrun(descriptor)
        self._idle()

    def _start_batch(self, batch: BatchDescriptor) -> None:
        """Batch unit: fetch the descriptor array, then stream it (F2)."""
        timing = self.timing
        invalid = batch.validate()
        if invalid is not None:
            batch.completion.status = invalid
            self.env.call_in(timing.completion_write_ns, self._descriptor_written)
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
        self.env.call_in(fetch, self._batch_fetched)

    def _batch_fetched(self) -> None:
        self._members = iter(self._descriptor.descriptors)
        self._batch_events = []
        self._next_member()

    def _next_member(self) -> None:
        batch = self._descriptor
        for work in self._members:
            work.dispatch_weight = batch.dispatch_weight
            self._admit(work)
            return
        events = self._batch_events
        self._members = self._batch_events = None
        self._finish_batch(batch, events)
        self._idle()

    def _finish_batch(self, batch: BatchDescriptor, events: List[Event]) -> None:
        """Write the batch completion once ``events`` (its members' data
        phases) have all triggered; the engine does not wait for it."""
        env = self.env
        timing = self.timing

        def members_done(_event: Optional[Event] = None) -> None:
            failed = sum(1 for d in batch.descriptors if not d.completion.status.is_success)
            batch.completion.status = StatusCode.BATCH_FAILED if failed else StatusCode.SUCCESS
            batch.completion.bytes_completed = len(batch.descriptors) - failed
            env.call_in(timing.completion_write_ns, written)

        def written() -> None:
            batch.times.completed = env.now
            self.device._complete(batch)

        def start() -> None:
            if events:
                env.all_of(events).callbacks.append(members_done)
            else:
                members_done()

        # Boot entry: the wait for the members starts when this pops.
        env.call_in(0.0, start)

    def _serial_done(self) -> None:
        """The serial stage is done with one work descriptor."""
        if self._members is None:
            self._idle()
        else:
            self._next_member()

    def _admit(self, work: WorkDescriptor) -> None:
        """Serial stage; then hand off to a pipelined data phase."""
        self._work = work
        self.env.call_in(self.timing.pe_setup_ns, self._set_up)

    def _set_up(self) -> None:
        work = self._work
        invalid = work.validate()
        if invalid is not None:
            work.completion.status = invalid
            self.env.call_in(self.timing.completion_write_ns, self._work_written)
            return
        if work.opcode is Opcode.DRAIN:
            # Drain: complete only after everything already dispatched
            # to this engine has finished.
            if self._inflight:
                pending = [phase.exit_event() for phase in self._inflight]
                self.env.all_of(pending).callbacks.append(self._drained)
            else:
                self._drained()
            return
        batch_events = self._batch_events
        if batch_events and int(work.flags) & _FENCE:
            self.env.all_of(batch_events).callbacks.append(self._fenced)
        elif self.free_read_buffers:
            # Take a read buffer, or stall until a data phase frees one,
            # as _fenced does after a FENCE wait.
            self.free_read_buffers -= 1
            self.env.call_in(0.0, self._admitted)
        else:
            self._buffer_wait = True

    def _drained(self, _event: Optional[Event] = None) -> None:
        self._work.completion.status = StatusCode.SUCCESS
        self.env.call_in(self.timing.completion_write_ns, self._work_written)

    def _work_written(self) -> None:
        """Completion record of a descriptor that never reached a data phase."""
        work = self._work
        work.times.completed = self.env._now
        self.device._complete(work)
        self._serial_done()

    def _fenced(self, _event: Event) -> None:
        """The FENCE wait is over: take a read buffer, or stall until a
        data phase frees one."""
        if self.free_read_buffers:
            self.free_read_buffers -= 1
            self.env.call_in(0.0, self._admitted)
        else:
            self._buffer_wait = True

    def _admitted(self) -> None:
        phase = _DataPhase(self, self._work)
        # Boot entry: the data phase starts when this pops.
        self.env.call_in(0.0, phase.start)
        self._inflight[phase] = None
        if self._members is None:
            # The serial stage is free: ask the arbiter (as _idle does).
            self.group.arbiter.request(self)
        else:
            self._batch_events.append(phase.exit_event())
            self._next_member()

    def _build_flows(
        self,
        work: WorkDescriptor,
        reads: List[Operand],
        writes: List[Operand],
        callback,
    ):
        """Start the bandwidth flows for one descriptor's data.

        Each flow reports to ``callback`` when it drains (see
        :meth:`FairShareLink.transfer`).  Returns ``(flows started,
        write tail)``.
        """
        device = self.device
        memsys = device.memsys
        llc = memsys.llc
        agent = device.name  # the device's LLC agent
        now = self.env._now
        socket = device.socket
        flows = 0
        write_tail = 0.0

        read_bytes = 0
        # Nodes the memory-link reads come from: a tuple, as a
        # descriptor has one or two reads.
        read_nodes: Tuple[int, ...] = ()
        for buffer, _va, nbytes in reads:
            read_bytes += nbytes
            if buffer.in_llc:
                continue  # LLC sources don't touch the memory links
            node = buffer.node
            read_nodes += (node,)
            memsys.read_flow(node, nbytes, socket, callback)
            flows += 1

        write_bytes = 0
        leaked: Optional[List[int]] = None
        cache_control = int(work.flags) & _CACHE_CONTROL
        for buffer, _va, nbytes in writes:
            write_bytes += nbytes
            if cache_control or buffer.in_llc:
                # G3: allocate the destination into the LLC directly.
                llc.touch(agent, nbytes, None, False, now)
                write_tail = max(write_tail, llc.write_latency)
            elif llc.leaky:
                # Leaky-DMA regime: writes spill to DRAM and the write
                # path stalls the engine (Fig 10's per-device drop).
                if leaked is None:
                    leaked = []
                leaked.append(nbytes)
                memsys.write_flow(buffer.node, nbytes, socket, callback)
                flows += 1
                write_tail = max(
                    write_tail,
                    memsys.write_latency(buffer.node, socket, False, buffer.node in read_nodes),
                )
            else:
                # Default DDIO path: absorbed by the LLC's IO ways.
                # Non-DRAM destinations (CXL, PMEM) must still reach
                # their medium, so their write links throttle the flow.
                llc.touch(agent, nbytes, None, True, now)
                route = self._ddio_routes.get(buffer.node)
                if route is None:
                    hop, _remote = memsys.topology.crossing_cost(socket, buffer.node)
                    route = self._ddio_routes[buffer.node] = (
                        memsys.node(buffer.node).kind is TierKind.DRAM,
                        hop,
                    )
                is_dram, hop = route
                if not is_dram:
                    memsys.write_flow(buffer.node, nbytes, socket, callback)
                    flows += 1
                    write_tail = max(write_tail, memsys.write_latency(buffer.node, socket))
                else:
                    penalty = SAME_NODE_TURNAROUND_NS if buffer.node in read_nodes else 0.0
                    write_tail = max(write_tail, llc.write_latency + penalty + hop)

        # Fabric demand: the larger of the two directions, plus the
        # leaked writes' amplification, added in write order.
        port_bytes = float(max(read_bytes, write_bytes))
        if leaked is not None:
            amplification = self.timing.leaky_write_amplification - 1.0
            for nbytes in leaked:
                port_bytes += nbytes * amplification
        if port_bytes > 0:
            device.port.transfer(port_bytes, work.dispatch_weight, callback)
            flows += 1
        return flows, write_tail


class _DataPhase:
    """One descriptor's pipelined data stage, as a chain of bare calendar entries.

    translate → read latency → fair-share flows → write tail →
    completion record; a BOF=0 page fault moves the head up to the
    fault through the same read/flow/write stages, then writes a
    partial completion.  A model exception escaping a stage frees the
    read buffer before it propagates out of ``env.run()``.
    """

    __slots__ = (
        "pe",
        "work",
        "traced",
        "space",
        "reads",
        "writes",
        "operands",
        "remote_homes",
        "faults",
        "fault_offset",
        "fault_va",
        "pending",
        "write_tail",
        "exit",
    )

    def __init__(self, pe: ProcessingEngine, work: WorkDescriptor):
        self.pe = pe
        self.work = work
        self.remote_homes: Tuple[int, ...] = ()
        self.fault_offset: Optional[int] = None
        self.exit: Optional[Event] = None

    def exit_event(self) -> Event:
        """Triggers when the phase retires.

        Made on demand: only a DRAIN, a FENCE or a batch waits for a
        data phase, and an exit nobody waits for would be a calendar
        entry whose pop runs no callback.
        """
        if self.exit is None:
            self.exit = Event(self.pe.env)
        return self.exit

    def retire(self) -> None:
        """Free the read buffer, count the phase, trigger its exit event.

        A serial stage stalled on the buffer gets it straight away:
        the grant is one zero-delay entry to its next stage.
        """
        pe = self.pe
        del pe._inflight[self]
        if pe._buffer_wait:
            pe._buffer_wait = False
            pe.env.call_in(0.0, pe._admitted)
        else:
            pe.free_read_buffers += 1
        pe.descriptors_processed += 1
        pe._m_data_phases.value += 1
        if self.exit is not None:
            self.exit.succeed()

    def _fail(self) -> None:
        """Free the read buffer once, however many stages an error unwinds."""
        if self in self.pe._inflight:
            self.retire()

    def start(self) -> None:
        pe = self.pe
        device = pe.device
        env = pe.env
        work = self.work
        tracer = env.tracer
        traced = self.traced = tracer.enabled and work.trace_track >= 0
        agent, track = pe.agent, work.trace_track
        try:
            if traced:
                tracer.begin(env.now, "translate", "translate", agent, track)
            space = device._spaces.get(work.pasid)
            if space is None:
                space = device.space_for(work.pasid)  # raises, naming the PASID
            self.space = space
            try:
                op = work.opcode
                if op is Opcode.MEMMOVE or op is Opcode.COPY_CRC:
                    # io_demand's operands for the common case, inline;
                    # validate() admits no size <= 0 for these opcodes.
                    size = work.size
                    src, dst = work.src, work.dst
                    reads = [(space.buffer_at(src), src, size)]
                    writes = [(space.buffer_at(dst), dst, size)]
                else:
                    reads, writes = io_demand(work, space)
            except KeyError:
                # Address not mapped in this PASID's space: the IOMMU
                # reports an unrecoverable translation fault.
                work.completion.status = StatusCode.PAGE_FAULT
                work.completion.fault_address = work.src or work.dst
                if traced:
                    tracer.instant(env.now, "unmapped_address", "translate", agent, track)
                    tracer.end(env.now, "translate", "translate", agent, track)
                env.call_in(pe.timing.completion_write_ns, self._fault_written)
                return
            self.reads = reads
            self.writes = writes

            # Remote-socket operands translate at their home socket's
            # IOMMU: a UPI round trip plus queueing behind other remote
            # translations (fleet platforms only — see
            # MemorySystem.ats_acquire).
            operands = self.operands = reads + writes
            memsys = device.memsys
            if memsys.model_ats_contention and memsys.topology.sockets > 1:
                key = ()
                for buffer, _va, _nbytes in operands:
                    key += (buffer.node,)
                remote_homes = pe._remote_homes.get(key)
                if remote_homes is None:
                    homes = {memsys.topology.socket_of(node) for node in key}
                    homes.discard(device.socket)
                    remote_homes = pe._remote_homes[key] = tuple(sorted(homes))
                self.remote_homes = remote_homes
            remote_homes = self.remote_homes
            ats_ns = (
                memsys.ats_acquire(device.socket, remote_homes) if remote_homes else 0.0
            )

            # Address translation, one walk over every operand: first
            # page on the critical path, page faults stall for their
            # full service time (BOF=1) or abort the descriptor with a
            # partial completion (BOF=0).
            translated = self._translated
            block_on_fault = bool(int(work.flags) & _BLOCK_ON_FAULT)
            translate_ns, faults, fault_offset, fault_va = device.atc.translate_operands(
                work.pasid, operands, block_on_fault
            )
            if block_on_fault:
                self.faults = faults
            else:
                self.faults = 0
                if fault_offset is not None:
                    self.fault_offset = fault_offset
                    self.fault_va = fault_va
                    translated = self._fault_translated
            translate_ns += ats_ns
            if translate_ns:
                env.call_in(translate_ns, translated)
                return
            translated()
        except BaseException:
            self._fail()
            raise

    def _translated(self) -> None:
        pe = self.pe
        device = pe.device
        env = pe.env
        work = self.work
        try:
            if self.remote_homes:
                device.memsys.ats_release(self.remote_homes)
            if self.traced:
                tracer = env.tracer
                agent, track = pe.agent, work.trace_track
                tracer.end(
                    env.now,
                    "translate",
                    "translate",
                    agent,
                    track,
                    {"faults": self.faults} if self.faults else None,
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
                env.call_in(work.size / pe.timing.cache_flush_bandwidth, self._stored)
                return
            # The source access latency, as _read computes it for a
            # BOF=0 head.
            latencies = pe._read_latencies
            read_ns = 0.0
            for buffer, _va, _nbytes in self.reads:
                key = (buffer.node, buffer.in_llc)
                try:
                    latency = latencies[key]
                except KeyError:
                    latency = latencies[key] = device.memsys.read_latency(
                        buffer.node, device.socket, buffer.in_llc
                    )
                if latency > read_ns:
                    read_ns = latency
            if read_ns:
                env.call_in(read_ns, self._stream)
            else:
                self._stream()
        except BaseException:
            self._fail()
            raise

    def _fault_translated(self) -> None:
        """BOF=0 page fault: finish the head, report partial completion.

        The engine has moved ``fault_offset`` bytes when the faulting
        page's translation comes back unserviced; it writes a completion
        record with ``PAGE_FAULT``, ``bytes_completed`` up to the fault,
        and the faulting address, then moves on — fault resolution is
        software's job (paper §4.3: touch the page, resubmit the rest).
        """
        pe = self.pe
        env = pe.env
        work = self.work
        tracer = env.tracer
        agent, track = pe.agent, work.trace_track
        fault_offset = self.fault_offset
        try:
            if self.traced:
                tracer.instant(
                    env.now, "page_fault", "translate", agent, track, {"va": self.fault_va}
                )
                tracer.end(env.now, "translate", "translate", agent, track)
            if fault_offset > 0:
                # Move the completed head through the normal data path.
                self.reads = [(b, va, min(n, fault_offset)) for b, va, n in self.reads]
                self.writes = [(b, va, min(n, fault_offset)) for b, va, n in self.writes]
                if self.traced:
                    tracer.begin(
                        env.now, "execute", "execute", agent, track,
                        {"opcode": work.opcode.name, "partial": fault_offset},
                    )
                self._read()
            else:
                self._fault_record()
        except BaseException:
            self._fail()
            raise

    def _read(self) -> None:
        """Source access latency (critical path, once per descriptor) of
        a BOF=0 head; :meth:`_translated` inlines it for a whole copy."""
        pe = self.pe
        latencies = pe._read_latencies
        read_ns = 0.0
        for buffer, _va, _nbytes in self.reads:
            key = (buffer.node, buffer.in_llc)
            try:
                latency = latencies[key]
            except KeyError:
                device = pe.device
                latency = latencies[key] = device.memsys.read_latency(
                    buffer.node, device.socket, buffer.in_llc
                )
            if latency > read_ns:
                read_ns = latency
        if read_ns:
            pe.env.call_in(read_ns, self._stream)
        else:
            self._stream()

    def _stream(self) -> None:
        try:
            self.pending, self.write_tail = self.pe._build_flows(
                self.work, self.reads, self.writes, self._flow_done
            )
            if not self.pending:
                self._write()
        except BaseException:
            self._fail()
            raise

    def _flow_done(self) -> None:
        """One flow drained; after the last, the write tail starts.

        Counts what an ``all_of`` over the flows counted, and pushes
        the zero-delay entry it pushed when it succeeded.
        """
        self.pending -= 1
        if not self.pending:
            self.pe.env.call_in(0.0, self._write)

    def _write(self) -> None:
        try:
            if self.write_tail:
                self.pe.env.call_in(self.write_tail, self._stored)
            else:
                self._stored()
        except BaseException:
            self._fail()
            raise

    def _stored(self) -> None:
        """The data (or a BOF=0 head) has landed: run the byte operation."""
        pe = self.pe
        env = pe.env
        work = self.work
        fault_offset = self.fault_offset
        try:
            # The real byte operation runs when there are operands and
            # every one's buffer holds bytes.
            operands = self.operands
            backed = bool(operands)
            for buffer, _va, _nbytes in operands:
                if buffer._data is None:
                    backed = False
                    break
            if fault_offset is None:
                if backed:
                    functional.execute(work, self.space)
                else:
                    completion = work.completion
                    completion.status = StatusCode.SUCCESS
                    completion.bytes_completed = work.size
                env.call_in(pe.timing.completion_write_ns, self._written)
                return
            if backed and work.opcode in RESUMABLE_OPCODES:
                functional.execute(work.clone_range(0, fault_offset), self.space)
            if self.traced:
                env.tracer.end(env.now, "execute", "execute", pe.agent, work.trace_track)
            self._fault_record()
        except BaseException:
            self._fail()
            raise

    def _fault_record(self) -> None:
        device = self.pe.device
        env = self.pe.env
        completion = self.work.completion
        completion.status = StatusCode.PAGE_FAULT
        completion.bytes_completed = self.fault_offset
        completion.fault_address = self.fault_va
        env.metrics.counter(f"{device.name}.partial_completions").add()
        env.call_in(self.pe.timing.completion_write_ns, self._fault_written)

    def _written(self) -> None:
        pe = self.pe
        env = pe.env
        work = self.work
        try:
            work.times.completed = env._now
            if self.traced:
                env.tracer.end(
                    env.now,
                    "execute",
                    "execute",
                    pe.agent,
                    work.trace_track,
                    None
                    if work.opcode is Opcode.CACHE_FLUSH
                    else {"status": work.completion.status.name},
                )
            pe.device._complete(work)
            # Retire as retire() does, without its frame.
            del pe._inflight[self]
            if pe._buffer_wait:
                pe._buffer_wait = False
                env.call_in(0.0, pe._admitted)
            else:
                pe.free_read_buffers += 1
            pe.descriptors_processed += 1
            pe._m_data_phases.value += 1
            if self.exit is not None:
                self.exit.succeed()
        except BaseException:
            self._fail()
            raise

    def _fault_written(self) -> None:
        """Completion record of an unmapped-address or BOF=0 fault written."""
        device = self.pe.device
        work = self.work
        try:
            work.times.completed = self.pe.env._now
            device._complete(work)
            if self.remote_homes:
                device.memsys.ats_release(self.remote_homes)
            self.retire()
        except BaseException:
            self._fail()
            raise
