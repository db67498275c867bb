"""Frozen generator forms of the libfabric SAR, SPDK and vhost drivers.

``repro.workloads`` runs these three drivers as chains of bare calendar
entries.  This module keeps the generator processes they replaced, as
they stood, with the ``env.process`` wrappers that started them, as the
oracle of ``tests/workloads/test_driver_forms.py``: both forms are set
up on twin platforms and stepped one pop at a time.  The two forms push
the same entries at the same ``(when, seq)`` except each process's exit
entry, which nothing waits on.

Do not edit these functions to follow a change in ``src/``: a change to
what the drivers do belongs in both forms, pinned first by
``tests/workloads/test_driver_golden.py``.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.cpu.core import CpuCore, CycleCategory
from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.mem.address import AddressSpace
from repro.mem.link import FairShareLink
from repro.platform import Platform
from repro.runtime.driver import Portal
from repro.runtime.submit import prepare_descriptor, submit
from repro.runtime.wait import WaitMode, wait_for
from repro.sim.engine import Process
from repro.sim.resources import Resource
from repro.sim.stats import Histogram
from repro.workloads.libfabric import SarParams
from repro.workloads.spdk import DigestMode, SpdkConfig, SpdkResult
from repro.workloads.vhost import RecordingArray, VhostConfig, VhostResult

KB = 1024

_COMPLETION_FLAGS = DescriptorFlags.REQUEST_COMPLETION | DescriptorFlags.BLOCK_ON_FAULT
_PACKET_FLAGS = (
    DescriptorFlags.REQUEST_COMPLETION
    | DescriptorFlags.BLOCK_ON_FAULT
    | DescriptorFlags.CACHE_CONTROL
)


# -- libfabric SAR ---------------------------------------------------------


def _segments(size: int, params: SarParams):
    full, tail = divmod(size, params.segment_size)
    sizes = [params.segment_size] * full
    if tail:
        sizes.append(tail)
    return sizes


def _cpu_transfer(
    platform: Platform, core: CpuCore, size: int, params: SarParams, ranks_active: int = 1
) -> Generator:
    """CPU SAR: copy-in then copy-out, serialized per segment."""
    effective = min(
        params.cpu_copy_bandwidth,
        params.memory_stream_budget / max(1, ranks_active) / 2.0,
    )
    yield core.spend(CycleCategory.BUSY, params.protocol_ns)
    for segment in _segments(size, params):
        yield core.spend(CycleCategory.BUSY, params.per_segment_ns)
        # Two serialized hops through the bounce buffer.
        yield core.spend(CycleCategory.BUSY, 2.0 * segment / effective)


def _dsa_transfer(
    platform: Platform,
    core: CpuCore,
    portal: Portal,
    space: AddressSpace,
    bounce,
    size: int,
    params: SarParams,
) -> Generator:
    """DSA SAR: both hops offloaded, segments batched and pipelined."""
    env = platform.env
    yield core.spend(CycleCategory.BUSY, params.protocol_ns)
    segments = _segments(size, params)
    for first in range(0, len(segments), params.dsa_batch):
        chunk = segments[first : first + params.dsa_batch]
        members = []
        for segment in chunk:
            members.append(
                WorkDescriptor(
                    opcode=Opcode.MEMMOVE,
                    pasid=space.pasid,
                    flags=_COMPLETION_FLAGS,
                    src=bounce.va,
                    dst=bounce.va + params.segment_size,
                    size=segment,
                )
            )
        if len(members) == 1:
            unit = members[0]
        else:
            unit = BatchDescriptor(descriptors=members, pasid=space.pasid)
        yield from prepare_descriptor(env, core, unit, platform.costs)
        yield from submit(env, core, portal, unit, platform.costs)
        yield from wait_for(env, core, unit, WaitMode.SPIN, platform.costs)


def start_transfer(
    platform: Platform,
    portal: Portal,
    space: AddressSpace,
    size: int,
    use_dsa: bool,
    params: SarParams,
    window: int = 1,
    ranks_active: int = 1,
) -> List[Process]:
    """``measure_transfer``'s set-up and process, without the run."""
    core = platform.core(0)
    bounce = space.allocate(2 * params.segment_size + params.segment_size)

    def run(env):
        for _message in range(window):
            if use_dsa:
                yield from _dsa_transfer(platform, core, portal, space, bounce, size, params)
            else:
                yield from _cpu_transfer(platform, core, size, params, ranks_active)

    return [platform.env.process(run(platform.env))]


# -- SPDK NVMe/TCP target ----------------------------------------------------


def _io_worker(
    platform: Platform,
    cfg: SpdkConfig,
    cores: Resource,
    network: FairShareLink,
    portal: Optional[Portal],
    space: Optional[AddressSpace],
    payload_buffer,
    result: SpdkResult,
    share: int,
) -> Generator:
    """Closed-loop initiator stream: one outstanding IO per worker."""
    env = platform.env
    costs = cfg.costs
    core = platform.core(0)  # aggregate accounting identity
    segments = max(1, cfg.io_size // (16 * KB))
    for _io in range(share):
        start = env.now
        # SSD read happens before the target core gets involved.
        yield env.timeout(costs.ssd_latency_ns)
        yield cores.request()
        descriptor = None
        try:
            yield core.spend(
                CycleCategory.BUSY,
                costs.per_io_base_ns + segments * costs.per_16k_segment_ns,
            )
            if cfg.digest is DigestMode.ISAL:
                yield core.spend(
                    CycleCategory.BUSY, cfg.io_size / costs.isal_crc_bandwidth
                )
            elif cfg.digest is DigestMode.DSA:
                descriptor = WorkDescriptor(
                    opcode=Opcode.CRCGEN,
                    pasid=space.pasid,
                    flags=_COMPLETION_FLAGS,
                    src=payload_buffer.va,
                    size=cfg.io_size,
                )
                amortized = (
                    platform.costs.enqcmd_ns
                    + platform.costs.descriptor_prepare_ns
                    + costs.accel_submit_ns
                ) / costs.accel_batch
                yield core.spend(CycleCategory.BUSY, amortized)
                while not portal.device.submit(descriptor, portal.wq_id):
                    yield env.timeout(platform.costs.enqcmd_ns)
        finally:
            cores.release()
        if descriptor is not None:
            if not descriptor.completion_event.triggered:
                yield descriptor.completion_event
        yield network.transfer(cfg.io_size)
        result.ios_completed += 1
        result.latency.add(env.now - start)


def start_target(cfg: SpdkConfig, platform: Platform):
    """``run_spdk_target``'s set-up and worker processes, without the run
    (``elapsed_ns`` is left to the caller); returns ``(result,
    processes)``."""
    cfg.validate()
    env = platform.env
    cores = Resource(env, capacity=cfg.target_cores)
    network = FairShareLink(env, cfg.costs.network_bandwidth, "nvme_tcp.net")
    space = None
    portal = None
    payload = None
    if cfg.digest is DigestMode.DSA:
        space = AddressSpace()
        portal = platform.open_portal("dsa0", 0, space)
        payload = space.allocate(cfg.io_size)
    result = SpdkResult(config=cfg, ios_completed=0, elapsed_ns=0.0, latency=Histogram())
    processes = []
    per_worker, remainder = divmod(cfg.ios, cfg.queue_depth)
    for worker in range(cfg.queue_depth):
        share = per_worker + (1 if worker < remainder else 0)
        if share == 0:
            continue
        processes.append(
            env.process(
                _io_worker(
                    platform, cfg, cores, network, portal, space, payload, result, share
                )
            )
        )
    return result, processes


# -- DPDK vhost --------------------------------------------------------------


def _cpu_queue(
    platform: Platform, cfg: VhostConfig, core: CpuCore, result: VhostResult
) -> Generator:
    costs = cfg.costs
    for _burst in range(cfg.bursts):
        for _pkt in range(cfg.burst_size):
            yield core.spend(CycleCategory.BUSY, costs.per_packet_overhead_ns)
            copy = costs.copy_ns(cfg.packet_size)
            yield core.spend(CycleCategory.BUSY, copy)
            result.copy_cycles_ns += copy
            yield core.spend(CycleCategory.BUSY, costs.writeback_ns)
            result.packets_forwarded += 1


def _dsa_queue(
    platform: Platform,
    cfg: VhostConfig,
    core: CpuCore,
    portal: Portal,
    space: AddressSpace,
    result: VhostResult,
    wq_sharers: int = 1,
) -> Generator:
    """Three-stage pipeline: retire burst i-1, submit burst i, overlap."""
    env = platform.env
    costs = cfg.costs
    recording = RecordingArray()
    pending: Optional[BatchDescriptor] = None
    pending_indices: List[int] = []
    nic_pool = [
        space.allocate(cfg.packet_size, in_llc=True) for _ in range(2 * cfg.burst_size)
    ]
    guest_pool = [space.allocate(cfg.packet_size) for _ in range(2 * cfg.burst_size)]

    for burst in range(cfg.bursts + 1):
        if pending is not None:
            if not pending.completion.done:
                stall_start = env.now
                yield pending.completion_event
                result.dsa_stall_ns += env.now - stall_start
            for index in pending_indices:
                recording.mark_completed(index)
            released = recording.release_prefix()
            yield core.spend(
                CycleCategory.BUSY,
                released * (costs.writeback_ns + costs.reorder_scan_ns),
            )
            result.packets_forwarded += released
            pending = None
        if burst == cfg.bursts:
            break

        members = []
        pending_indices = []
        offset = (burst % 2) * cfg.burst_size
        for pkt in range(cfg.burst_size):
            src = nic_pool[offset + pkt]
            dst = guest_pool[offset + pkt]
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
            pending_indices.append(recording.record())
        batch = BatchDescriptor(descriptors=members, pasid=space.pasid)
        yield from prepare_descriptor(env, core, batch, platform.costs)
        if wq_sharers > 1:
            yield core.spend(
                CycleCategory.BUSY, costs.dwq_lock_ns * (wq_sharers - 1)
            )
        yield from submit(env, core, portal, batch, platform.costs)
        pending = batch

        yield core.spend(
            CycleCategory.BUSY, cfg.burst_size * costs.per_packet_overhead_ns
        )
    result.reordered_packets = recording.reordered


def start_vhost(cfg: VhostConfig, platform: Platform):
    """``run_vhost``'s set-up and queue processes, without the run;
    returns ``(result, cores, processes)``."""
    cfg.validate()
    env = platform.env
    result = VhostResult(config=cfg, packets_forwarded=0, elapsed_ns=0.0)
    cores = []
    processes = []
    space = AddressSpace() if cfg.use_dsa else None
    for queue in range(cfg.n_queues):
        core = platform.core(queue)
        cores.append(core)
        if cfg.use_dsa:
            n_wqs = len(platform.driver.device("dsa0").wqs)
            sharers = cfg.n_queues // n_wqs + (1 if queue % n_wqs < cfg.n_queues % n_wqs else 0)
            portal = platform.open_portal("dsa0", queue % n_wqs, space)
            processes.append(
                env.process(
                    _dsa_queue(platform, cfg, core, portal, space, result, wq_sharers=sharers)
                )
            )
        else:
            processes.append(env.process(_cpu_queue(platform, cfg, core, result)))
    return result, cores, processes
