"""Closed-loop fleet measurement harness.

``run_fleet`` is to the fleet what ``run_dsa_microbench`` is to one
device: a deterministic closed loop that builds a
``sockets × devices_per_socket`` platform, places per-socket workers'
descriptors through a :class:`~repro.fleet.scheduler.FleetScheduler`,
and returns throughput plus failover accounting.  Every descriptor is
driven through the :func:`repro.runtime.recovery.recover` loop (as a
bare-entry :func:`~repro.runtime.recovery.recovery_op`), so a device
disabled mid-run (directly or via a ``repro.faults`` reset window)
loses nothing: queued work re-routes to surviving devices or finishes
on the software kernels, and the harness asserts the conservation
invariant ``offered == completed``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, List, Optional

from repro.cpu.core import CpuCore
from repro.dsa.config import DeviceConfig, WqMode
from repro.dsa.opcodes import Opcode
from repro.fleet.policy import PlacementPolicy, make_policy
from repro.fleet.scheduler import FleetScheduler
from repro.mem.address import AddressSpace, Buffer
from repro.platform import Platform, fleet_platform
from repro.runtime.dml import Dml
from repro.runtime.recovery import RecoveryResult, RetryPolicy, recovery_op
from repro.sim.stats import Histogram

__all__ = ["FleetConfig", "FleetResult", "run_fleet"]


@dataclass
class FleetConfig:
    """One fleet sweep point."""

    sockets: int = 2
    devices_per_socket: int = 2
    placement: str = "numa-local"
    transfer_size: int = 64 * 1024
    #: Outstanding descriptors per worker.
    queue_depth: int = 4
    #: Descriptors each worker completes.
    iterations: int = 32
    workers_per_socket: int = 2
    #: Buffer home node per worker: its own socket (True) or always
    #: node 0 (False — remote-heavy traffic for the UPI/IOMMU model).
    local_buffers: bool = True
    wq_size: int = 32
    #: Take this device down at ``disable_at_ns`` (failover runs).
    disable_device: Optional[str] = None
    disable_at_ns: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def validate(self) -> None:
        if self.sockets < 1 or self.devices_per_socket < 1:
            raise ValueError("fleet needs at least one socket and device")
        if self.transfer_size <= 0:
            raise ValueError(f"transfer size must be positive: {self.transfer_size}")
        if self.queue_depth < 1 or self.iterations < 1:
            raise ValueError("queue depth and iterations must be >= 1")
        if self.workers_per_socket < 1:
            raise ValueError("need at least one worker per socket")

    @property
    def n_devices(self) -> int:
        return self.sockets * self.devices_per_socket

    @property
    def offered(self) -> int:
        return self.sockets * self.workers_per_socket * self.iterations


@dataclass
class FleetResult:
    """Comparable output of one fleet run."""

    config: FleetConfig
    offered: int = 0
    completed: int = 0
    payload_bytes: int = 0
    elapsed_ns: float = 0.0
    latency: Histogram = field(default_factory=Histogram)
    #: Descriptors re-routed to a surviving device after DEVICE_DISABLED.
    rerouted: int = 0
    #: Descriptors that finished on the software kernels.
    to_software: int = 0
    bytes_hardware: int = 0
    bytes_software: int = 0
    #: Final ``fleet.*`` / per-device metric snapshot.
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Payload GB/s (bytes/ns)."""
        return self.payload_bytes / self.elapsed_ns if self.elapsed_ns > 0 else 0.0

    @property
    def lost(self) -> int:
        """Descriptors that never completed — must be zero."""
        return self.offered - self.completed


def _fleet_worker(
    platform: Platform,
    dml: Dml,
    scheduler: FleetScheduler,
    space: AddressSpace,
    cfg: FleetConfig,
    core: CpuCore,
    socket: int,
    result: FleetResult,
) -> Generator:
    """Closed loop: keep ``queue_depth`` recoveries in flight."""
    env = platform.env
    node = socket if cfg.local_buffers else 0
    slots: List[Dict[str, Buffer]] = [
        {
            "src": space.allocate(cfg.transfer_size, node=node),
            "dst": space.allocate(cfg.transfer_size, node=node),
        }
        for _slot in range(cfg.queue_depth)
    ]

    outstanding: Deque = deque()
    issued = 0
    completed = 0
    while completed < cfg.iterations:
        while issued < cfg.iterations and len(outstanding) < cfg.queue_depth:
            slot = slots[issued % cfg.queue_depth]
            descriptor = dml.make_descriptor(
                Opcode.MEMMOVE, cfg.transfer_size, src=slot["src"], dst=slot["dst"]
            )
            op = recovery_op(
                dml, core, descriptor, policy=cfg.retry, scheduler=scheduler, socket=socket
            )
            env.call_in(0, op.start)
            outstanding.append((op.done, env.now))
            issued += 1
        done, start_ns = outstanding.popleft()
        recovery: RecoveryResult = yield done
        completed += 1
        result.latency.add(env.now - start_ns)
        if recovery.status.is_success:
            result.completed += 1
            result.payload_bytes += cfg.transfer_size
        result.rerouted += recovery.reroutes
        result.bytes_hardware += recovery.bytes_hardware
        result.bytes_software += recovery.bytes_software
        if recovery.bytes_software:
            result.to_software += 1


def _disable_timer(platform: Platform, cfg: FleetConfig) -> Generator:
    yield platform.env.timeout(cfg.disable_at_ns)
    if platform.driver.is_enabled(cfg.disable_device):
        platform.driver.disable(cfg.disable_device)


def run_fleet(
    cfg: FleetConfig, policy: Optional[PlacementPolicy] = None
) -> FleetResult:
    """Execute one fleet sweep point; returns measurements + accounting.

    Raises ``AssertionError`` if any offered descriptor is lost — the
    failover contract is *zero loss*: every descriptor completes on
    some device or on software.
    """
    cfg.validate()
    platform = fleet_platform(
        sockets=cfg.sockets,
        devices_per_socket=cfg.devices_per_socket,
        device_config=DeviceConfig.single(wq_size=cfg.wq_size, mode=WqMode.SHARED),
    )
    env = platform.env
    space = AddressSpace()
    portals = [
        platform.open_portal(name, 0, space)
        for name in sorted(platform.driver.devices)
    ]
    scheduler = FleetScheduler(
        platform.driver, portals, policy=policy or make_policy(cfg.placement)
    )
    dml = Dml(
        env,
        portals,
        kernels=platform.kernels,
        costs=platform.costs,
        space=space,
        scheduler=scheduler,
    )
    result = FleetResult(config=cfg, offered=cfg.offered)
    worker_id = 0
    for socket in range(cfg.sockets):
        for _w in range(cfg.workers_per_socket):
            core = platform.core(worker_id)
            env.process(
                _fleet_worker(
                    platform, dml, scheduler, space, cfg, core, socket, result
                ),
                name=f"fleet.worker{worker_id}",
            )
            worker_id += 1
    if cfg.disable_device is not None:
        env.process(_disable_timer(platform, cfg), name="fleet.disable")
    start = env.now
    env.run()
    result.elapsed_ns = env.now - start
    result.metrics = {
        name: value
        for name, value in platform.metrics_snapshot().items()
        if name.startswith(("fleet.", "recovery.", "mem.iommu."))
    }
    assert result.lost == 0, (
        f"fleet lost {result.lost} descriptors "
        f"(offered {result.offered}, completed {result.completed})"
    )
    return result
