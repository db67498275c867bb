"""SPDK NVMe/TCP target with CRC32 data-digest offload (Appendix C, Fig 21).

Two ICX initiators issue read requests over TCP to one SPR target that
serves 16 NVMe SSDs.  For every read the target builds a PDU; when the
Data Digest field is enabled a CRC32C of the payload is computed —
either by ISA-L on the target core, or offloaded (batched) to DSA
through SPDK's accel framework.  The published shapes:

* DSA-offload IOPS ≈ no-digest IOPS, saturating at the same low core
  count; ISA-L needs several more cores to saturate;
* DSA average latency ≈ no-digest, far below ISA-L.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Generator, Optional

from repro.cpu.core import CycleCategory
from repro.dsa.config import DeviceConfig, WqMode
from repro.dsa.descriptor import WorkDescriptor
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.mem.address import AddressSpace
from repro.mem.link import FairShareLink
from repro.platform import Platform, spr_platform
from repro.runtime.driver import Portal
from repro.sim.resources import Resource
from repro.sim.stats import Histogram

KB = 1024

#: Completion record requested, page faults blocked on: every
#: descriptor this workload builds.
_COMPLETION_FLAGS = DescriptorFlags.REQUEST_COMPLETION | DescriptorFlags.BLOCK_ON_FAULT


class DigestMode(enum.Enum):
    NONE = "none"  # data digest disabled
    ISAL = "isal"  # CRC32C on the target cores (ISA-L, AVX-512)
    DSA = "dsa"  # CRC32C offloaded through the accel framework


@dataclass(frozen=True)
class SpdkCosts:
    """Per-IO target-side CPU costs (ns) besides the digest."""

    #: TCP/PDU processing, NVMe command handling, socket writes.
    per_io_base_ns: float = 2900.0
    #: Additional segmentation cost per 16 KB of payload.
    per_16k_segment_ns: float = 350.0
    #: ISA-L CRC32C streaming rate on one core.
    isal_crc_bandwidth: float = 9.0  # GB/s
    #: Submitting/polling a batched accel-framework CRC job.
    accel_submit_ns: float = 180.0
    #: CRC jobs coalesced per accel-framework submission ("requests
    #: are batched when possible and polled in user-space").
    accel_batch: int = 8
    #: SSD random-read service time (plenty of devices -> no queueing).
    ssd_latency_ns: float = 80_000.0
    #: Aggregate network path to the two initiators.
    network_bandwidth: float = 25.0  # GB/s


@dataclass
class SpdkConfig:
    """One Fig 21 sweep point."""

    io_size: int = 16 * KB
    digest: DigestMode = DigestMode.DSA
    target_cores: int = 4
    queue_depth: int = 64  # outstanding IOs across initiators
    ios: int = 2000
    costs: SpdkCosts = field(default_factory=SpdkCosts)

    def validate(self) -> None:
        if self.io_size < 512:
            raise ValueError(f"io size too small: {self.io_size}")
        if self.target_cores < 1 or self.queue_depth < 1 or self.ios < 1:
            raise ValueError("cores, queue depth, and ios must be >= 1")


@dataclass
class SpdkResult:
    config: SpdkConfig
    ios_completed: int
    elapsed_ns: float
    latency: Histogram

    @property
    def iops(self) -> float:
        return self.ios_completed / self.elapsed_ns * 1e9 if self.elapsed_ns else 0.0

    @property
    def throughput(self) -> float:
        """Payload GB/s delivered to the initiators."""
        return self.ios_completed * self.config.io_size / self.elapsed_ns


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
                # The accel framework coalesces jobs: the ENQCMD and
                # poll overhead are shared by ~accel_batch CRC jobs.
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
            # Completion is reaped by the reactor's poller; the core is
            # free meanwhile (asynchronous accel framework).
            if not descriptor.completion_event.triggered:
                yield descriptor.completion_event
        yield network.transfer(cfg.io_size)
        result.ios_completed += 1
        result.latency.add(env.now - start)


def run_spdk_target(cfg: SpdkConfig, platform: Optional[Platform] = None) -> SpdkResult:
    """Serve ``cfg.ios`` reads; returns IOPS and latency distribution."""
    cfg.validate()
    if platform is None:
        platform = spr_platform(
            device_config=DeviceConfig.single(wq_size=32, mode=WqMode.SHARED)
        )
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
    start = env.now
    per_worker, remainder = divmod(cfg.ios, cfg.queue_depth)
    for worker in range(cfg.queue_depth):
        share = per_worker + (1 if worker < remainder else 0)
        if share == 0:
            continue
        env.process(
            _io_worker(
                platform, cfg, cores, network, portal, space, payload, result, share
            )
        )
    env.run()
    result.elapsed_ns = env.now - start
    return result
