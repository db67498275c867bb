"""libfabric SAR-protocol workloads: pingpong, RMA, AllReduce, BERT
(paper Appendix A, Fig 17).

Intra-node libfabric messages above the eager threshold use the
Segmentation-and-Reassembly (SAR) protocol when CMA is not permitted:
the sender copies each segment into a shared bounce buffer and the
receiver copies it out.  On the CPU the two hops of a segment are
serialized (effective bandwidth ≈ half a core's memcpy rate); with DSA
both hops are offloaded and deeply pipelined, which is where the
published 4.7–5.1x large-message speedups come from.

The transfer engine is a real simulation against the DSA device model,
driven by :class:`_SarSender`, a chain of bare calendar entries; each
DSA chunk is one :class:`~repro.runtime.op.RuntimeOp` whose batch
members recycle through a descriptor pool.  AllReduce and the BERT step
compose measured transfer times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cpu.core import CycleCategory
from repro.dsa.config import DeviceConfig
from repro.dsa.descriptor import BatchDescriptor, DescriptorPool, WorkDescriptor
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.mem.address import AddressSpace
from repro.platform import Platform, spr_platform
from repro.runtime.driver import Portal
from repro.runtime.op import RuntimeOp, WaitMode

KB = 1024
MB = 1024 * KB

#: Completion record requested, page faults blocked on: every
#: descriptor this workload builds.
_COMPLETION_FLAGS = DescriptorFlags.REQUEST_COMPLETION | DescriptorFlags.BLOCK_ON_FAULT

_BUSY = CycleCategory.BUSY


@dataclass(frozen=True)
class SarParams:
    """SAR protocol constants."""

    segment_size: int = 16 * KB
    #: Per-message protocol handshake (match bits, CQ entries).
    protocol_ns: float = 420.0
    #: Per-segment bookkeeping on the CPU path.
    per_segment_ns: float = 90.0
    #: Single-core copy bandwidth (one SAR hop).
    cpu_copy_bandwidth: float = 12.0
    #: Fused reduce(+copy) bandwidth on a core (AVX-512 sum).
    reduce_bandwidth: float = 50.0
    #: Aggregate DRAM streaming budget shared by all ranks' copies.
    memory_stream_budget: float = 200.0
    #: Segments batched per DSA submission.
    dsa_batch: int = 8


@dataclass
class TransferResult:
    size: int
    elapsed_ns: float

    @property
    def bandwidth(self) -> float:
        """GB/s (bytes/ns)."""
        return self.size / self.elapsed_ns if self.elapsed_ns else 0.0


def _segments(size: int, params: SarParams):
    full, tail = divmod(size, params.segment_size)
    sizes = [params.segment_size] * full
    if tail:
        sizes.append(tail)
    return sizes


class _SarSender:
    """``window`` back-to-back SAR messages from one core, as a chain of
    bare calendar entries.

    Each stage books its core time (:meth:`CpuCore.account`) and pushes
    the next stage with :meth:`Environment.call_in` for the same delay.

    * CPU: per message the protocol handshake, then per segment its
      bookkeeping and the two serialized hops through the bounce buffer.
    * DSA: per message the handshake, then per chunk of up to
      ``dsa_batch`` segments one :class:`~repro.runtime.op.RuntimeOp`
      prepares, submits and spin-waits for one descriptor (a batch, or
      the lone member of a one-segment chunk) and settles in place into
      :meth:`_reaped`.  The chunk's members come from a
      :class:`~repro.dsa.descriptor.DescriptorPool` and go back to it
      only once the op has reaped the chunk's completion, when the
      device holds none of them any more.
    """

    __slots__ = (
        "env",
        "core",
        "costs",
        "params",
        "segments",
        "messages",
        "use_dsa",
        "hop_bandwidth",
        "portal",
        "space",
        "bounce",
        "pool",
        "_next",
        "_members",
    )

    def __init__(
        self,
        platform: Platform,
        size: int,
        params: SarParams,
        window: int,
        use_dsa: bool,
        portal: Portal,
        space: AddressSpace,
        ranks_active: int = 1,
    ):
        self.env = platform.env
        self.core = platform.core(0)
        self.costs = platform.costs
        self.params = params
        self.segments = _segments(size, params)
        self.messages = window
        self.use_dsa = use_dsa
        #: One SAR hop's copy bandwidth under the ranks' DRAM budget.
        self.hop_bandwidth = min(
            params.cpu_copy_bandwidth,
            params.memory_stream_budget / max(1, ranks_active) / 2.0,
        )
        self.portal = portal
        self.space = space
        self.bounce = space.allocate(2 * params.segment_size + params.segment_size)
        self.pool = DescriptorPool(limit=params.dsa_batch)

    def start(self) -> None:
        """Top of one message: the protocol handshake."""
        if not self.messages:
            return
        self.messages -= 1
        self._next = 0
        delay = self.params.protocol_ns
        self.core.account(_BUSY, delay)
        self.env.call_in(delay, self._chunk if self.use_dsa else self._segment)

    # -- CPU: copy-in then copy-out, serialized per segment --------------------
    def _segment(self) -> None:
        if self._next == len(self.segments):
            self.start()
            return
        delay = self.params.per_segment_ns
        self.core.account(_BUSY, delay)
        self.env.call_in(delay, self._hops)

    def _hops(self) -> None:
        # Two serialized hops through the bounce buffer.
        delay = 2.0 * self.segments[self._next] / self.hop_bandwidth
        self._next += 1
        self.core.account(_BUSY, delay)
        self.env.call_in(delay, self._segment)

    # -- DSA: both hops offloaded, segments batched and pipelined --------------
    def _chunk(self) -> None:
        first = self._next
        if first == len(self.segments):
            self.start()
            return
        params = self.params
        chunk = self.segments[first : first + params.dsa_batch]
        self._next = first + len(chunk)
        pool = self.pool
        pasid = self.space.pasid
        src = self.bounce.va
        dst = src + params.segment_size
        members = []
        for segment in chunk:
            # With SVM the device addresses both endpoints' memory
            # directly, so SAR's two bounce hops collapse into one
            # offloaded copy — the structural source of the large
            # published speedups (CPU pays both hops serially).
            member = pool.acquire()
            if member is None:
                member = WorkDescriptor(opcode=Opcode.MEMMOVE)
            member.opcode = Opcode.MEMMOVE
            member.pasid = pasid
            member.flags = _COMPLETION_FLAGS
            member.src = src
            member.dst = dst
            member.size = segment
            members.append(member)
        self._members = members
        if len(members) == 1:
            unit = members[0]
        else:
            unit = BatchDescriptor(descriptors=members, pasid=pasid)
        RuntimeOp(self.env, self.core, self.costs).for_submit(
            self.portal, unit, prepare=True, wait=WaitMode.SPIN
        ).start_into(self._reaped)

    def _reaped(self, _done) -> None:
        release = self.pool.release
        for member in self._members:
            release(member)
        self._chunk()


def _build_platform() -> Tuple[Platform, Portal, AddressSpace]:
    platform = spr_platform(device_config=DeviceConfig.single(wq_size=32, n_engines=4))
    space = AddressSpace()
    portal = platform.open_portal("dsa0", 0, space)
    return platform, portal, space


def _start_transfer(
    platform: Platform,
    portal: Portal,
    space: AddressSpace,
    size: int,
    use_dsa: bool,
    params: SarParams,
    window: int = 1,
    ranks_active: int = 1,
) -> _SarSender:
    """Set up ``window`` SAR messages and push their first entry."""
    sender = _SarSender(platform, size, params, window, use_dsa, portal, space, ranks_active)
    platform.env.call_in(0.0, sender.start)
    return sender


def measure_transfer(
    size: int,
    use_dsa: bool,
    params: Optional[SarParams] = None,
    window: int = 1,
    ranks_active: int = 1,
) -> TransferResult:
    """Time ``window`` back-to-back SAR messages of ``size`` bytes.

    ``window=1`` is the pingpong pattern (one in flight); a larger
    window models the RMA/BW tests' pipelining.
    """
    if size <= 0:
        raise ValueError(f"size must be positive: {size}")
    params = params or SarParams()
    platform, portal, space = _build_platform()
    start = platform.env.now
    _start_transfer(platform, portal, space, size, use_dsa, params, window, ranks_active)
    platform.env.run()
    elapsed = (platform.env.now - start) / window
    return TransferResult(size=size, elapsed_ns=elapsed)


def pingpong_speedup(size: int, params: Optional[SarParams] = None) -> float:
    """Fig 17a PP: DSA/CPU message-rate ratio at one message in flight."""
    cpu = measure_transfer(size, use_dsa=False, params=params)
    dsa = measure_transfer(size, use_dsa=True, params=params)
    return cpu.elapsed_ns / dsa.elapsed_ns


def rma_speedup(size: int, params: Optional[SarParams] = None, window: int = 8) -> float:
    """Fig 17a RMA: pipelined one-direction bandwidth ratio."""
    cpu = measure_transfer(size, use_dsa=False, params=params, window=window)
    dsa = measure_transfer(size, use_dsa=True, params=params, window=window)
    return cpu.elapsed_ns / dsa.elapsed_ns


@dataclass
class AllReduceResult:
    size: int
    ranks: int
    cpu_ns: float
    dsa_ns: float

    @property
    def speedup(self) -> float:
        return self.cpu_ns / self.dsa_ns if self.dsa_ns else 0.0


def allreduce(
    size: int,
    ranks: int,
    params: Optional[SarParams] = None,
    cpu_ranks_active: Optional[int] = None,
) -> AllReduceResult:
    """Ring AllReduce built from SAR chunk transfers (OSU AR test).

    2(R-1) steps move S/R-byte chunks between neighbours; the CPU path
    serializes the reduce with its copies, while the DSA path overlaps
    the core's reduce of chunk *i* with the device copy of chunk *i+1*.
    ``cpu_ranks_active`` scales the CPU path's memory contention (BERT
    runs compute threads alongside the copies).
    """
    if ranks < 2:
        raise ValueError(f"allreduce needs >= 2 ranks, got {ranks}")
    params = params or SarParams()
    chunk = max(1, size // ranks)
    steps = 2 * (ranks - 1)
    cpu_chunk = measure_transfer(
        chunk, use_dsa=False, params=params, ranks_active=cpu_ranks_active or ranks
    ).elapsed_ns
    dsa_chunk = measure_transfer(chunk, use_dsa=True, params=params).elapsed_ns
    reduce_ns = chunk / params.reduce_bandwidth
    cpu_step = cpu_chunk + reduce_ns  # reduce serialized with the copy
    dsa_step = max(dsa_chunk, reduce_ns)  # reduce overlapped with DSA
    return AllReduceResult(
        size=size, ranks=ranks, cpu_ns=steps * cpu_step, dsa_ns=steps * dsa_step
    )


@dataclass
class BertStepResult:
    """One data-parallel BERT pretraining step (MLPerf-style)."""

    ranks: int
    compute_ns: float
    cpu_allreduce_ns: float
    dsa_allreduce_ns: float
    framework_ns: float

    @property
    def allreduce_speedup(self) -> float:
        return (self.cpu_allreduce_ns + self.framework_ns) / (
            self.dsa_allreduce_ns + self.framework_ns
        )

    @property
    def end_to_end_speedup(self) -> float:
        cpu = self.compute_ns + self.cpu_allreduce_ns + self.framework_ns
        dsa = self.compute_ns + self.dsa_allreduce_ns + self.framework_ns
        return cpu / dsa


def bert_step(
    ranks: int,
    gradient_bytes: int = 1_300 * MB,
    compute_ns: float = 5.0e9,
    framework_ns: float = 7.0e7,
    params: Optional[SarParams] = None,
) -> BertStepResult:
    """Model one BERT step: fixed compute + gradient AllReduce.

    Training threads stream activations/weights concurrently with the
    CPU-path gradient copies, so the copy contention grows with ranks
    (the reason the paper's BERT AR speedup rises from 2.8x at 2 ranks
    to 3.3x at 8 while the OSU microbenchmark stays flat).
    """
    result = allreduce(
        gradient_bytes, ranks, params=params, cpu_ranks_active=ranks + 2
    )
    return BertStepResult(
        ranks=ranks,
        compute_ns=compute_ns,
        cpu_allreduce_ns=result.cpu_ns,
        dsa_allreduce_ns=result.dsa_ns,
        framework_ns=framework_ns,
    )
