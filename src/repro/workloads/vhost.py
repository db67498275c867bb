"""DPDK Vhost packet-forwarding case study (paper §6.4, Fig 16).

Models the TestPMD macfwd setup: a Vhost PMD thread moves bursts of 32
packets between a NIC port and a VirtIO guest queue.  Two data paths:

* **CPU** — the PMD core copies every packet itself (`memcpy`), paying
  a per-packet cost that grows with packet size (the 30%/50%+ copy
  cycle shares the paper reports);
* **DSA** — the paper's optimized integration: a three-stage software
  pipeline (check completions & write back used descriptors → prepare
  and submit one *batch* descriptor per burst → overlap remaining work
  while DSA copies), with cache-control set so packets land in LLC
  (G3), and a per-virtqueue *recording array* that restores packet
  order when several threads share DWQs.

Each virtqueue thread (:class:`_CpuQueue`, :class:`_DsaQueue`) runs as a
chain of bare calendar entries, one stage method per hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cpu.core import CpuCore, CycleCategory
from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.mem.address import AddressSpace
from repro.platform import Platform, spr_platform
from repro.runtime.driver import Portal
from repro.runtime.op import RuntimeOp


#: Every packet copy: completion record, block on fault, and the
#: destination allocated into the LLC for the guest to read.
_PACKET_FLAGS = (
    DescriptorFlags.REQUEST_COMPLETION
    | DescriptorFlags.BLOCK_ON_FAULT
    | DescriptorFlags.CACHE_CONTROL
)

_BUSY = CycleCategory.BUSY


@dataclass(frozen=True)
class VhostCosts:
    """Calibrated per-packet CPU costs of the Vhost enqueue/dequeue path."""

    #: Descriptor fetch, buffer address translation, virtqueue updates.
    per_packet_overhead_ns: float = 110.0
    #: Used-descriptor write-back (~10 B, not worth offloading).
    writeback_ns: float = 15.0
    #: Recording-array scan per packet when DWQs are shared.
    reorder_scan_ns: float = 4.0
    #: Spinlock acquisition when several virtqueue threads share one
    #: DWQ (§6.4: bind each DWQ to its busiest core to avoid this).
    dwq_lock_ns: float = 120.0
    #: Software packet copy: base + size/bandwidth (packets are copied
    #: into cold guest buffers).
    copy_base_ns: float = 20.0
    copy_bandwidth: float = 10.0  # GB/s

    def copy_ns(self, packet_size: int) -> float:
        return self.copy_base_ns + packet_size / self.copy_bandwidth


@dataclass
class VhostConfig:
    """One forwarding experiment."""

    packet_size: int = 1024
    burst_size: int = 32
    bursts: int = 200
    use_dsa: bool = True
    n_queues: int = 1
    costs: VhostCosts = field(default_factory=VhostCosts)

    def validate(self) -> None:
        if self.packet_size < 64:
            raise ValueError(f"packet below minimum Ethernet size: {self.packet_size}")
        if self.burst_size < 1 or self.bursts < 1 or self.n_queues < 1:
            raise ValueError("burst size, bursts, and queues must be >= 1")


@dataclass
class VhostResult:
    config: VhostConfig
    packets_forwarded: int
    elapsed_ns: float
    copy_cycles_ns: float = 0.0
    total_cycles_ns: float = 0.0
    dsa_stall_ns: float = 0.0
    reordered_packets: int = 0

    @property
    def forwarding_rate_mpps(self) -> float:
        """Packets per microsecond x 1e6 == millions of packets/s."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.packets_forwarded / self.elapsed_ns * 1e3

    @property
    def copy_cycle_fraction(self) -> float:
        """Share of PMD cycles spent copying packets (CPU path only)."""
        if self.total_cycles_ns <= 0:
            return 0.0
        return self.copy_cycles_ns / self.total_cycles_ns


class RecordingArray:
    """Per-virtqueue in-order completion tracker (paper §6.4).

    Packets may finish out of order when several threads share DWQs;
    the array marks completed copies and only releases the prefix up to
    the first still-pending packet, so the VM always sees packets in
    virtqueue order.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._completed: List[bool] = []
        self._head = 0
        self.reordered = 0

    @property
    def in_flight(self) -> int:
        return len(self._completed) - self._head

    def record(self) -> int:
        """Register a new in-flight packet copy; returns its index."""
        if self.in_flight >= self.capacity:
            raise RuntimeError("recording array overflow")
        self._completed.append(False)
        return len(self._completed) - 1

    def mark_completed(self, index: int) -> None:
        if not self._head <= index < len(self._completed):
            raise IndexError(f"index {index} outside in-flight window")
        if any(not done for done in self._completed[self._head : index]):
            self.reordered += 1  # finished ahead of an earlier packet
        self._completed[index] = True

    def release_prefix(self) -> int:
        """Pop the contiguous completed prefix; returns how many."""
        released = 0
        while self._head < len(self._completed) and self._completed[self._head]:
            self._head += 1
            released += 1
        return released


class _CpuQueue:
    """One virtqueue's PMD thread on the CPU path, as a chain of bare
    calendar entries: per packet the descriptor work, the copy and the
    used-descriptor write-back, each booked on the core and waited out
    with :meth:`Environment.call_in`."""

    __slots__ = ("env", "core", "result", "overhead_ns", "copy_ns", "writeback_ns", "left")

    def __init__(self, platform: Platform, cfg: VhostConfig, core: CpuCore, result: VhostResult):
        self.env = platform.env
        self.core = core
        self.result = result
        self.overhead_ns = cfg.costs.per_packet_overhead_ns
        self.copy_ns = cfg.costs.copy_ns(cfg.packet_size)
        self.writeback_ns = cfg.costs.writeback_ns
        self.left = cfg.bursts * cfg.burst_size

    def start(self) -> None:
        """Top of one packet."""
        if not self.left:
            return
        self.left -= 1
        delay = self.overhead_ns
        self.core.account(_BUSY, delay)
        self.env.call_in(delay, self._copy)

    def _copy(self) -> None:
        delay = self.copy_ns
        self.core.account(_BUSY, delay)
        self.env.call_in(delay, self._copied)

    def _copied(self) -> None:
        self.result.copy_cycles_ns += self.copy_ns
        delay = self.writeback_ns
        self.core.account(_BUSY, delay)
        self.env.call_in(delay, self._written)

    def _written(self) -> None:
        self.result.packets_forwarded += 1
        self.start()


class _DsaQueue:
    """One virtqueue's PMD thread on the DSA path: the three-stage
    pipeline (retire burst i-1, submit burst i, overlap), as a chain of
    bare calendar entries.

    Core time is booked and waited out with :meth:`Environment.call_in`;
    the wait for a late burst hangs on its batch's completion event;
    preparation and submission run as :class:`~repro.runtime.op.RuntimeOp`
    stages that settle in place into the next stage.
    """

    __slots__ = (
        "env",
        "core",
        "costs",
        "cfg",
        "portal",
        "space",
        "result",
        "lock_ns",
        "recording",
        "burst",
        "pending",
        "pending_indices",
        "nic_pool",
        "guest_pool",
        "stall_start",
        "released",
    )

    def __init__(
        self,
        platform: Platform,
        cfg: VhostConfig,
        core: CpuCore,
        portal: Portal,
        space: AddressSpace,
        result: VhostResult,
        wq_sharers: int = 1,
    ):
        self.env = platform.env
        self.core = core
        self.costs = platform.costs
        self.cfg = cfg
        self.portal = portal
        self.space = space
        self.result = result
        # Threads sharing a DWQ serialize on its spinlock; cost grows
        # with the number of contending threads.
        self.lock_ns = cfg.costs.dwq_lock_ns * (wq_sharers - 1) if wq_sharers > 1 else None
        self.recording = RecordingArray()
        self.burst = 0

    def start(self) -> None:
        cfg = self.cfg
        space = self.space
        # Packet buffers: NIC mbufs (LLC-resident via DDIO) -> guest buffers.
        self.nic_pool = [
            space.allocate(cfg.packet_size, in_llc=True) for _ in range(2 * cfg.burst_size)
        ]
        self.guest_pool = [space.allocate(cfg.packet_size) for _ in range(2 * cfg.burst_size)]
        self._submit_burst()

    # Stage 1: retire the previous burst's copies in order.
    def _retire(self) -> None:
        """Top of each burst after the first."""
        pending = self.pending
        if not pending.completion.done:
            self.stall_start = self.env._now
            pending.completion_event.callbacks.append(self._caught_up)
            return
        self._reap()

    def _caught_up(self, _event) -> None:
        self.result.dsa_stall_ns += self.env._now - self.stall_start
        self._reap()

    def _reap(self) -> None:
        recording = self.recording
        for index in self.pending_indices:
            recording.mark_completed(index)
        released = self.released = recording.release_prefix()
        costs = self.cfg.costs
        delay = released * (costs.writeback_ns + costs.reorder_scan_ns)
        self.core.account(_BUSY, delay)
        self.env.call_in(delay, self._retired)

    def _retired(self) -> None:
        self.result.packets_forwarded += self.released
        self.burst += 1
        if self.burst == self.cfg.bursts:
            self.result.reordered_packets = self.recording.reordered
            return
        self._submit_burst()

    # Stage 2: assemble one batch descriptor for this burst (G1) with
    # the cache-control hint set (G3: packets are consumed by the guest
    # soon, keep them in LLC).
    def _submit_burst(self) -> None:
        cfg = self.cfg
        space = self.space
        recording = self.recording
        members = []
        indices = self.pending_indices = []
        offset = (self.burst % 2) * cfg.burst_size
        for pkt in range(cfg.burst_size):
            src = self.nic_pool[offset + pkt]
            dst = self.guest_pool[offset + pkt]
            members.append(
                WorkDescriptor(
                    opcode=Opcode.MEMMOVE,
                    pasid=space.pasid,
                    flags=_PACKET_FLAGS,
                    src=src.va,
                    dst=dst.va,
                    size=cfg.packet_size,
                )
            )
            indices.append(recording.record())
        batch = self.pending = BatchDescriptor(descriptors=members, pasid=space.pasid)
        RuntimeOp(self.env, self.core, self.costs).for_prepare(batch).start_into(self._prepared)

    def _prepared(self, _done) -> None:
        delay = self.lock_ns
        if delay is None:
            self._locked()
            return
        self.core.account(_BUSY, delay)
        self.env.call_in(delay, self._locked)

    def _locked(self) -> None:
        RuntimeOp(self.env, self.core, self.costs).for_submit(
            self.portal, self.pending
        ).start_into(self._submitted)

    # Stage 3: overlap the per-packet software work (descriptor fetch,
    # header processing) with the DSA copy.
    def _submitted(self, _done) -> None:
        cfg = self.cfg
        delay = cfg.burst_size * cfg.costs.per_packet_overhead_ns
        self.core.account(_BUSY, delay)
        self.env.call_in(delay, self._retire)


def _start_vhost(cfg: VhostConfig, platform: Platform):
    """Set up the virtqueue threads and push each one's first entry;
    returns ``(result, cores)``."""
    env = platform.env
    result = VhostResult(config=cfg, packets_forwarded=0, elapsed_ns=0.0)
    cores = []
    # Vhost is one process: all virtqueue threads share an address
    # space, which also lets several threads share a DWQ (§6.4).
    space = AddressSpace() if cfg.use_dsa else None
    for queue in range(cfg.n_queues):
        core = platform.core(queue)
        cores.append(core)
        if cfg.use_dsa:
            n_wqs = len(platform.driver.device("dsa0").wqs)
            sharers = cfg.n_queues // n_wqs + (1 if queue % n_wqs < cfg.n_queues % n_wqs else 0)
            portal = platform.open_portal("dsa0", queue % n_wqs, space)
            thread = _DsaQueue(platform, cfg, core, portal, space, result, wq_sharers=sharers)
        else:
            thread = _CpuQueue(platform, cfg, core, result)
        env.call_in(0.0, thread.start)
    return result, cores


def run_vhost(cfg: VhostConfig, platform: Optional[Platform] = None) -> VhostResult:
    """Forward ``cfg.bursts`` bursts; returns rate and cycle breakdown."""
    cfg.validate()
    if platform is None:
        from repro.dsa.config import DeviceConfig, WqMode

        platform = spr_platform(
            device_config=DeviceConfig.multi_wq(
                min(cfg.n_queues, 8), wq_size=16, mode=WqMode.DEDICATED
            )
            if cfg.use_dsa
            else None
        )
    env = platform.env
    start = env.now
    result, cores = _start_vhost(cfg, platform)
    env.run()
    result.elapsed_ns = env.now - start
    result.total_cycles_ns = sum(core.accounted_time for core in cores)
    return result
