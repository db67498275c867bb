"""SPDK NVMe/TCP target with CRC32 data-digest offload (Appendix C, Fig 21).

Two ICX initiators issue read requests over TCP to one SPR target that
serves 16 NVMe SSDs.  For every read the target builds a PDU; when the
Data Digest field is enabled a CRC32C of the payload is computed —
either by ISA-L on the target core, or offloaded (batched) to DSA
through SPDK's accel framework.  The published shapes:

* DSA-offload IOPS ≈ no-digest IOPS, saturating at the same low core
  count; ISA-L needs several more cores to saturate;
* DSA average latency ≈ no-digest, far below ISA-L.

Each initiator stream (one outstanding IO) is an :class:`_IoStream`, a
chain of bare calendar entries: the SSD read, a target core from the
``Resource``, the PDU and digest work on it, the CRC's completion event
when offloaded, then the network send's drain callback.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.cpu.core import CycleCategory
from repro.dsa.config import DeviceConfig, WqMode
from repro.dsa.descriptor import WorkDescriptor
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.mem.address import AddressSpace
from repro.mem.link import FairShareLink
from repro.platform import Platform, spr_platform
from repro.sim.resources import Resource
from repro.sim.stats import Histogram

KB = 1024

#: Completion record requested, page faults blocked on: every
#: descriptor this workload builds.
_COMPLETION_FLAGS = DescriptorFlags.REQUEST_COMPLETION | DescriptorFlags.BLOCK_ON_FAULT

_BUSY = CycleCategory.BUSY


class DigestMode(enum.Enum):
    NONE = "none"  # data digest disabled
    ISAL = "isal"  # CRC32C on the target cores (ISA-L, AVX-512)
    DSA = "dsa"  # CRC32C offloaded through the accel framework


_ISAL = DigestMode.ISAL
_DSA = DigestMode.DSA


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


class _Target:
    """What every initiator stream of one target shares."""

    __slots__ = (
        "env",
        "core",
        "cores",
        "network",
        "portal",
        "pasid",
        "payload_va",
        "result",
        "digest",
        "io_size",
        "ssd_ns",
        "io_ns",
        "crc_ns",
        "accel_ns",
        "enqcmd_ns",
    )

    def __init__(self, platform: Platform, cfg: SpdkConfig, result: SpdkResult):
        env = self.env = platform.env
        costs = cfg.costs
        self.core = platform.core(0)  # aggregate accounting identity
        self.cores = Resource(env, capacity=cfg.target_cores)
        self.network = FairShareLink(env, costs.network_bandwidth, "nvme_tcp.net")
        self.portal = None
        self.result = result
        self.digest = cfg.digest
        self.io_size = cfg.io_size
        self.ssd_ns = costs.ssd_latency_ns
        segments = max(1, cfg.io_size // (16 * KB))
        self.io_ns = costs.per_io_base_ns + segments * costs.per_16k_segment_ns
        self.crc_ns = cfg.io_size / costs.isal_crc_bandwidth
        # The accel framework coalesces jobs: the ENQCMD and poll
        # overhead are shared by ~accel_batch CRC jobs.
        self.accel_ns = (
            platform.costs.enqcmd_ns
            + platform.costs.descriptor_prepare_ns
            + costs.accel_submit_ns
        ) / costs.accel_batch
        self.enqcmd_ns = platform.costs.enqcmd_ns
        if cfg.digest is DigestMode.DSA:
            space = AddressSpace()
            self.portal = platform.open_portal("dsa0", 0, space)
            self.pasid = space.pasid
            self.payload_va = space.allocate(cfg.io_size).va


class _IoStream:
    """Closed-loop initiator stream, one outstanding IO at a time, as a
    chain of bare calendar entries: the SSD read, a target core, the
    PDU work and digest on that core, the CRC's completion when it was
    offloaded, then the network send."""

    __slots__ = ("target", "left", "started", "descriptor")

    def __init__(self, target: _Target, share: int):
        self.target = target
        self.left = share

    def start(self) -> None:
        """Top of one IO: the SSD read happens before the target core
        gets involved."""
        target = self.target
        env = target.env
        self.started = env._now
        self.descriptor = None
        env.call_in(target.ssd_ns, self._read)

    def _read(self) -> None:
        self.target.cores.request().callbacks.append(self._granted)

    def _granted(self, _request) -> None:
        target = self.target
        delay = target.io_ns
        target.core.account(_BUSY, delay)
        target.env.call_in(delay, self._processed)

    def _processed(self) -> None:
        target = self.target
        digest = target.digest
        if digest is _ISAL:
            target.core.account(_BUSY, target.crc_ns)
            target.env.call_in(target.crc_ns, self._digested)
        elif digest is _DSA:
            self.descriptor = WorkDescriptor(
                opcode=Opcode.CRCGEN,
                pasid=target.pasid,
                flags=_COMPLETION_FLAGS,
                src=target.payload_va,
                size=target.io_size,
            )
            target.core.account(_BUSY, target.accel_ns)
            target.env.call_in(target.accel_ns, self._submit)
        else:
            self._digested()

    def _submit(self) -> None:
        target = self.target
        portal = target.portal
        if not portal.device.submit(self.descriptor, portal.wq_id):
            target.env.call_in(target.enqcmd_ns, self._submit)
            return
        self._digested()

    def _digested(self) -> None:
        target = self.target
        target.cores.release()
        descriptor = self.descriptor
        if descriptor is not None:
            # Completion is reaped by the reactor's poller; the core is
            # free meanwhile (asynchronous accel framework).
            event = descriptor.completion_event
            if not event._triggered:
                event.callbacks.append(self._send)
                return
        self._send()

    def _send(self, _event=None) -> None:
        self.target.network.transfer(self.target.io_size, callback=self._delivered)

    def _delivered(self) -> None:
        target = self.target
        result = target.result
        result.ios_completed += 1
        result.latency.add(target.env._now - self.started)
        self.left -= 1
        if self.left:
            self.start()


def _start_target(cfg: SpdkConfig, platform: Platform) -> SpdkResult:
    """Set up the target and push each initiator stream's first entry;
    ``elapsed_ns`` is left to the caller."""
    result = SpdkResult(config=cfg, ios_completed=0, elapsed_ns=0.0, latency=Histogram())
    target = _Target(platform, cfg, result)
    per_worker, remainder = divmod(cfg.ios, cfg.queue_depth)
    for worker in range(cfg.queue_depth):
        share = per_worker + (1 if worker < remainder else 0)
        if share == 0:
            continue
        platform.env.call_in(0.0, _IoStream(target, share).start)
    return result


def run_spdk_target(cfg: SpdkConfig, platform: Optional[Platform] = None) -> SpdkResult:
    """Serve ``cfg.ios`` reads; returns IOPS and latency distribution."""
    cfg.validate()
    if platform is None:
        platform = spr_platform(
            device_config=DeviceConfig.single(wq_size=32, mode=WqMode.SHARED)
        )
    env = platform.env
    start = env.now
    result = _start_target(cfg, platform)
    env.run()
    result.elapsed_ns = env.now - start
    return result
