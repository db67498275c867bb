"""dsa-perf-micros equivalent: the §4 measurement driver.

One configuration describes an operation sweep point (operation,
transfer size, batch size, queue depth, WQ layout, buffer placement);
the runners execute it against DSA, the software baseline, or CBDMA
and return comparable results (GB/s of payload plus per-offload
latency distribution and the submitting cores' cycle accounting).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Dict, Generator, List, Optional, Tuple

from repro.cbdma.device import CbdmaDevice, CbdmaRequest
from repro.cpu.core import CpuCore, CycleCategory
from repro.dsa.config import DeviceConfig, WqMode
from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.dif import DifContext
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.mem.address import AddressSpace, Buffer
from repro.mem.pagetable import PAGE_4K
from repro.platform import Platform, icx_platform, spr_platform
from repro.runtime.driver import Portal
from repro.runtime.submit import prepare_descriptor, submit
from repro.runtime.wait import WaitMode, wait_for
from repro.sim.stats import Histogram


#: Completion record requested, page faults blocked on; with
#: ``cache_control`` the destination is allocated into the LLC too.
_COMPLETION_FLAGS = DescriptorFlags.REQUEST_COMPLETION | DescriptorFlags.BLOCK_ON_FAULT
_CACHED_FLAGS = _COMPLETION_FLAGS | DescriptorFlags.CACHE_CONTROL


@dataclass
class MicrobenchConfig:
    """One sweep point of the microbenchmark."""

    opcode: Opcode = Opcode.MEMMOVE
    transfer_size: int = 4096
    batch_size: int = 1
    #: Outstanding units (descriptors or batches); 1 = synchronous.
    queue_depth: int = 32
    #: Units to complete per worker (measurement length).
    iterations: int = 100
    n_workers: int = 1
    #: dsa-perf-micros polls completion records; Fig 11 opts into UMWAIT.
    wait_mode: WaitMode = WaitMode.SPIN
    wq_mode: WqMode = WqMode.DEDICATED
    wq_size: int = 32
    n_devices: int = 1
    engines_per_group: int = 1
    src_node: int = 0
    dst_node: int = 0
    src_in_llc: bool = False
    dst_in_llc: bool = False
    cache_control: bool = False
    page_size: int = PAGE_4K
    prefault: bool = True
    backed: bool = False
    pattern: int = 0x5A5A5A5A5A5A5A5A
    dif: Optional[DifContext] = None

    @property
    def synchronous(self) -> bool:
        return self.queue_depth == 1

    def validate(self) -> None:
        if self.transfer_size <= 0:
            raise ValueError(f"transfer size must be positive: {self.transfer_size}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1: {self.batch_size}")
        if self.queue_depth < 1:
            raise ValueError(f"queue depth must be >= 1: {self.queue_depth}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1: {self.iterations}")
        if self.n_workers < 1:
            raise ValueError(f"need at least one worker: {self.n_workers}")
        if self.wq_mode is WqMode.DEDICATED and self.queue_depth > self.wq_size:
            raise ValueError(
                f"DWQ cannot hold queue depth {self.queue_depth} with "
                f"{self.wq_size} entries; software must track credits"
            )

    @property
    def payload_per_unit(self) -> int:
        return self.transfer_size * self.batch_size


@dataclass
class MicrobenchResult:
    """Comparable output of every runner."""

    config: MicrobenchConfig
    operations: int
    payload_bytes: int
    elapsed_ns: float
    latency: Histogram
    cores: List[CpuCore] = field(default_factory=list)
    enqcmd_retries: int = 0

    @property
    def throughput(self) -> float:
        """Payload GB/s (bytes/ns)."""
        return self.payload_bytes / self.elapsed_ns if self.elapsed_ns > 0 else 0.0

    @property
    def mean_latency_ns(self) -> float:
        return self.latency.mean

    def umwait_fraction(self) -> float:
        """Share of worker-core time spent in UMWAIT (Fig 11 metric)."""
        total = sum(core.accounted_time for core in self.cores)
        in_umwait = sum(core.time_in(CycleCategory.UMWAIT) for core in self.cores)
        return in_umwait / total if total else 0.0


class _WorkerBuffers:
    """Pre-allocated buffer slots for one worker (destinations cycle)."""

    def __init__(self, space: AddressSpace, cfg: MicrobenchConfig):
        self.slots: List[List[Dict[str, Buffer]]] = []
        for _slot in range(cfg.queue_depth):
            members = []
            for _member in range(cfg.batch_size):
                members.append(_allocate_member(space, cfg))
            self.slots.append(members)


def _allocate_member(space: AddressSpace, cfg: MicrobenchConfig) -> Dict[str, Buffer]:
    op = cfg.opcode
    size = cfg.transfer_size
    member: Dict[str, Buffer] = {}

    def alloc(node: int, in_llc: bool, nbytes: int = size) -> Buffer:
        return space.allocate(
            nbytes, node=node, backed=cfg.backed, prefault=cfg.prefault, in_llc=in_llc
        )

    if op.reads_source or op is Opcode.CACHE_FLUSH:
        member["src"] = alloc(cfg.src_node, cfg.src_in_llc)
    if op.dual_source:
        member["src2"] = alloc(cfg.src_node, cfg.src_in_llc)
    if op.writes_destination:
        # DIF insert expands 512->520 blocks; over-allocate a little.
        member["dst"] = alloc(cfg.dst_node, cfg.dst_in_llc, nbytes=size + size // 8 + 64)
    if op is Opcode.DUALCAST:
        member["dst2"] = alloc(cfg.dst_node, cfg.dst_in_llc, nbytes=size)
    return member


def _build_descriptor(cfg: MicrobenchConfig, member: Dict[str, Buffer], pasid: int) -> WorkDescriptor:
    return WorkDescriptor(
        opcode=cfg.opcode,
        pasid=pasid,
        flags=_CACHED_FLAGS if cfg.cache_control else _COMPLETION_FLAGS,
        src=member["src"].va if "src" in member else 0,
        src2=member["src2"].va if "src2" in member else 0,
        dst=member["dst"].va if "dst" in member else 0,
        dst2=member["dst2"].va if "dst2" in member else 0,
        size=cfg.transfer_size,
        pattern=cfg.pattern,
        dif=cfg.dif,
    )


def _make_unit(cfg: MicrobenchConfig, slot: List[Dict[str, Buffer]], pasid: int):
    descriptors = [_build_descriptor(cfg, member, pasid) for member in slot]
    if cfg.batch_size == 1:
        return descriptors[0]
    return BatchDescriptor(descriptors=descriptors, pasid=pasid)


def _default_device_config(cfg: MicrobenchConfig) -> DeviceConfig:
    return DeviceConfig.single(
        wq_size=cfg.wq_size, n_engines=cfg.engines_per_group, mode=cfg.wq_mode
    )


def _dsa_worker(
    platform: Platform,
    portal: Portal,
    space: AddressSpace,
    cfg: MicrobenchConfig,
    core: CpuCore,
    result: MicrobenchResult,
) -> Generator:
    env = platform.env
    buffers = _WorkerBuffers(space, cfg)
    outstanding: deque = deque()
    issued = 0
    completed = 0
    while completed < cfg.iterations:
        while issued < cfg.iterations and len(outstanding) < cfg.queue_depth:
            unit = _make_unit(cfg, buffers.slots[issued % cfg.queue_depth], space.pasid)
            yield from prepare_descriptor(env, core, unit, platform.costs)
            retries = yield from submit(env, core, portal, unit, platform.costs)
            result.enqcmd_retries += retries
            issued += 1
            outstanding.append(unit)
        unit = outstanding.popleft()
        yield from wait_for(env, core, unit, cfg.wait_mode, platform.costs)
        completed += 1
        result.latency.add(unit.times.completed - unit.times.prepared)
        result.operations += len(unit) if isinstance(unit, BatchDescriptor) else 1
        result.payload_bytes += cfg.payload_per_unit


def run_dsa_microbench(
    cfg: MicrobenchConfig, platform: Optional[Platform] = None
) -> MicrobenchResult:
    """Execute the sweep point on DSA and return the measurements."""
    cfg.validate()
    if platform is None:
        needs_cxl = max(cfg.src_node, cfg.dst_node) >= 2
        # The paper's testbed (§4, Fig 10) measures 1-4 DSA instances on
        # ONE socket — a real SPR exposes up to 4 per socket — so the
        # microbench pins every device to socket 0 regardless of the
        # platform's round-robin default.  Cross-socket fleets are the
        # fleet harness's job (repro.fleet).
        platform = spr_platform(
            n_devices=cfg.n_devices,
            device_config=_default_device_config(cfg),
            with_cxl=needs_cxl,
            socket_of=lambda _index: 0,
        )
    env = platform.env
    result = MicrobenchResult(
        config=cfg, operations=0, payload_bytes=0, elapsed_ns=0.0, latency=Histogram()
    )
    pairs: List[Tuple[str, int]] = [
        (name, wq_id)
        for name, device in sorted(platform.driver.devices.items())
        for wq_id in sorted(device.wqs)
    ]
    start = env.now
    for worker_id in range(cfg.n_workers):
        space = AddressSpace(page_size=cfg.page_size)
        device_name, wq_id = pairs[worker_id % len(pairs)]
        portal = platform.open_portal(device_name, wq_id, space)
        core = platform.core(worker_id)
        result.cores.append(core)
        env.process(
            _dsa_worker(platform, portal, space, cfg, core, result),
            name=f"ubench.worker{worker_id}",
        )
    env.run()
    result.elapsed_ns = env.now - start
    return result


def _software_worker(
    platform: Platform, cfg: MicrobenchConfig, core: CpuCore, result: MicrobenchResult
) -> Generator:
    kernels = platform.kernels
    in_llc = cfg.src_in_llc and (cfg.dst_in_llc or not cfg.opcode.writes_destination)
    calls = cfg.iterations * cfg.batch_size
    per_call = kernels.time(cfg.opcode, cfg.transfer_size, in_llc=in_llc)
    for _call in range(calls):
        yield core.spend(CycleCategory.BUSY, per_call)
        result.latency.add(per_call)
        result.operations += 1
        result.payload_bytes += cfg.transfer_size


def run_software_microbench(
    cfg: MicrobenchConfig, platform: Optional[Platform] = None
) -> MicrobenchResult:
    """Execute the same sweep point with the software kernels."""
    cfg.validate()
    platform = platform or spr_platform(n_devices=0)
    env = platform.env
    result = MicrobenchResult(
        config=cfg, operations=0, payload_bytes=0, elapsed_ns=0.0, latency=Histogram()
    )
    start = env.now
    for worker_id in range(cfg.n_workers):
        core = platform.core(worker_id)
        result.cores.append(core)
        env.process(_software_worker(platform, cfg, core, result))
    env.run()
    result.elapsed_ns = env.now - start
    return result


def _cbdma_worker(
    platform: Platform,
    device: CbdmaDevice,
    channel_id: int,
    space: AddressSpace,
    cfg: MicrobenchConfig,
    core: CpuCore,
    result: MicrobenchResult,
) -> Generator:
    env = platform.env
    timing = device.timing
    slots = []
    for _slot in range(cfg.queue_depth):
        src = space.allocate(cfg.transfer_size, node=cfg.src_node)
        dst = space.allocate(cfg.transfer_size, node=cfg.dst_node)
        device.pin(src)
        device.pin(dst)
        slots.append((src, dst))
    def retire(request: CbdmaRequest) -> None:
        nonlocal completed
        completed += 1
        result.latency.add(request.times.completed - request.times.submitted)
        result.operations += 1
        result.payload_bytes += cfg.transfer_size

    outstanding: deque = deque()
    issued = 0
    completed = 0
    while completed < cfg.iterations:
        burst = 0
        while issued < cfg.iterations and len(outstanding) < cfg.queue_depth:
            src, dst = slots[issued % cfg.queue_depth]
            request = CbdmaRequest(src=src, dst=dst, size=cfg.transfer_size)
            yield core.spend(CycleCategory.SUBMIT, timing.ring_write_ns)
            device.submit(request, channel_id=channel_id)
            issued += 1
            burst += 1
            outstanding.append(request)
        if burst:
            # One doorbell covers the whole burst of ring entries, as
            # the I/OAT driver does.
            yield core.spend(CycleCategory.SUBMIT, timing.doorbell_ns)
        request = outstanding.popleft()
        if not request.completion_event.triggered:
            start_wait = env.now
            yield request.completion_event
            core.account(CycleCategory.WAIT_SPIN, env.now - start_wait)
        retire(request)
        # Drain everything else that already finished so the next
        # refill batches its ring writes under a single doorbell.
        while outstanding and outstanding[0].completion_event.triggered:
            retire(outstanding.popleft())


def run_cbdma_microbench(
    cfg: MicrobenchConfig, platform: Optional[Platform] = None
) -> MicrobenchResult:
    """Execute a copy sweep point on the CBDMA baseline (ICX platform).

    CBDMA only copies, so ``cfg.opcode`` must be MEMMOVE; batching is
    not supported by the hardware and is rejected here too.
    """
    cfg.validate()
    if cfg.opcode is not Opcode.MEMMOVE:
        raise ValueError(f"CBDMA supports memory copy only, not {cfg.opcode!r}")
    if cfg.batch_size != 1:
        raise ValueError("CBDMA has no batch descriptors")
    platform = platform or icx_platform()
    env = platform.env
    device = CbdmaDevice(env, platform.memsys)
    result = MicrobenchResult(
        config=cfg, operations=0, payload_bytes=0, elapsed_ns=0.0, latency=Histogram()
    )
    start = env.now
    for worker_id in range(cfg.n_workers):
        space = AddressSpace(page_size=cfg.page_size)
        core = platform.core(worker_id)
        result.cores.append(core)
        env.process(
            _cbdma_worker(
                platform, device, worker_id % device.n_channels, space, cfg, core, result
            )
        )
    env.run()
    result.elapsed_ns = env.now - start
    return result


def sweep(
    base: MicrobenchConfig, runner, **axis
) -> List[Tuple[Dict[str, object], MicrobenchResult]]:
    """Run ``runner`` over the cartesian product of keyword axes.

    Example: ``sweep(cfg, run_dsa_microbench, transfer_size=[1024, 4096])``.
    """
    points: List[Dict[str, object]] = [{}]
    for key, values in axis.items():
        points = [dict(point, **{key: value}) for point in points for value in values]
    results = []
    for point in points:
        results.append((point, runner(replace(base, **point))))
    return results
