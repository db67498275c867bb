"""Golden event order of the PE request path and the traffic request path.

Each scenario drives one branch of the processing engine (or of an
open-loop traffic request) and hashes everything the calendar's pop
order decides:

* each descriptor's ``(dispatched, completed, status, bytes_completed,
  fault_address)``;
* the order in which the devices completed descriptors (traffic reuses
  pooled descriptors, so completions are logged as they happen);
* the metrics snapshot and the final ``env.now``;
* the exported Chrome trace, with a live tracer installed.

The digests are fixed: a rewrite of the request path that moves one
calendar entry relative to another — or one traced span — changes
them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.dsa.config import DeviceConfig, EngineConfig, GroupConfig, WqConfig, WqMode
from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.device import DsaDevice
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.faults.inject import injection
from repro.faults.plan import FaultPlan
from repro.fleet import FleetSpec
from repro.mem.address import AddressSpace
from repro.obs.export import chrome_trace_events
from repro.obs.tracer import Tracer, install_tracer, installed_tracer
from repro.platform import fleet_platform, spr_platform
from repro.sim import rng
from repro.traffic.loadgen import LoadGenerator, drive_profile
from repro.traffic.profile import SizeDist, TrafficProfile, dsa_capacity, make_tenants

KB = 1024
PAGE = 4 * KB
PASID = 77
BOF0 = DescriptorFlags.REQUEST_COMPLETION
BOF1 = DescriptorFlags.REQUEST_COMPLETION | DescriptorFlags.BLOCK_ON_FAULT


@pytest.fixture
def tracer():
    previous = installed_tracer()
    live = Tracer()
    install_tracer(live)
    yield live
    install_tracer(previous)


@pytest.fixture
def completions(monkeypatch):
    """Log every device completion, in the order the devices write them."""
    log = []
    complete = DsaDevice._complete

    def logged(device, descriptor):
        complete(device, descriptor)
        times, record = descriptor.times, descriptor.completion
        log.append(
            (
                device.name,
                device.env.now,
                type(descriptor).__name__,
                times.dispatched,
                times.completed,
                record.status.name,
                record.bytes_completed,
                record.fault_address,
            )
        )

    monkeypatch.setattr(DsaDevice, "_complete", logged)
    return log


@pytest.fixture(autouse=True)
def pinned_seed():
    previous = rng._installed_seed
    rng.install_seed(None)
    yield
    rng.install_seed(previous)


# -- scenarios ----------------------------------------------------------------
# Each builds its platform (under the installed tracer), runs it to
# completion and returns ``(platform, descriptors)``.


def _device(platform=None, name="dsa0"):
    platform = platform or spr_platform()
    device = platform.driver.device(name)
    space = AddressSpace(pasid=PASID)
    device.attach_space(space)
    return platform, device, space


def _copy(space, size, flags=BOF1, node=0, prefault=True, backed=False):
    src = space.allocate(size, node=node, prefault=prefault, backed=backed)
    dst = space.allocate(size, node=node, backed=backed)
    return WorkDescriptor(
        Opcode.MEMMOVE, pasid=space.pasid, flags=flags, src=src.va, dst=dst.va, size=size
    )


def _submit_all(platform, device, descriptors):
    tracer = platform.env.tracer
    for descriptor in descriptors:
        descriptor.trace_track = tracer.next_track()
        if isinstance(descriptor, BatchDescriptor):
            for member in descriptor.descriptors:
                member.trace_track = tracer.next_track()
        assert device.submit(descriptor)
    platform.env.run()
    return platform, descriptors


def scenario_memmove():
    platform, device, space = _device()
    descriptors = [_copy(space, size) for size in (256, 4 * KB, 64 * KB)]
    descriptors.append(_copy(space, 8 * KB, backed=True))
    return _submit_all(platform, device, descriptors)


def scenario_partial_head():
    platform, device, space = _device()
    descriptor = _copy(space, 8 * PAGE, flags=BOF0)
    plan = FaultPlan(seed=1, scripted_vas=(descriptor.src + 3 * PAGE + 100,))
    with injection(plan):
        return _submit_all(platform, device, [descriptor, _copy(space, 4 * KB)])


def scenario_fault_at_zero():
    platform, device, space = _device()
    descriptors = [
        _copy(space, 4 * PAGE, flags=BOF0, prefault=False),
        _copy(space, 4 * PAGE, flags=BOF1, prefault=False),
    ]
    return _submit_all(platform, device, descriptors)


def scenario_unmapped():
    platform, device, space = _device()
    bad = WorkDescriptor(
        Opcode.MEMMOVE, pasid=space.pasid, src=0x7FFF_0000_0000, dst=0x7FFF_1000_0000,
        size=4 * KB,
    )
    return _submit_all(platform, device, [bad, _copy(space, 4 * KB)])


def scenario_cache_flush():
    platform, device, space = _device()
    target = space.allocate(64 * KB)
    flush = WorkDescriptor(
        Opcode.CACHE_FLUSH, pasid=space.pasid, dst=target.va, size=64 * KB
    )
    return _submit_all(platform, device, [flush, _copy(space, 4 * KB)])


def scenario_drain():
    config = DeviceConfig.single(wq_size=32, n_engines=1)
    platform, device, space = _device(spr_platform(device_config=config))
    descriptors = [_copy(space, 1024 * KB), _copy(space, 16 * KB), _copy(space, 4 * KB)]
    descriptors.append(WorkDescriptor(Opcode.DRAIN, pasid=space.pasid))
    descriptors.append(_copy(space, 4 * KB))
    descriptors.append(WorkDescriptor(Opcode.DRAIN, pasid=space.pasid))
    return _submit_all(platform, device, descriptors)


def scenario_fenced_batch():
    platform, device, space = _device()
    members = [
        _copy(space, 256 * KB),
        _copy(space, 4 * KB, flags=BOF0, prefault=False),
        _copy(space, 8 * KB, flags=BOF1 | DescriptorFlags.FENCE),
        _copy(space, 4 * KB),
    ]
    batch = BatchDescriptor(descriptors=members, pasid=space.pasid)
    return _submit_all(platform, device, [batch, _copy(space, 4 * KB)])


def scenario_invalid_batch():
    platform, device, space = _device()
    empty = BatchDescriptor(descriptors=[], pasid=space.pasid)
    members = [
        WorkDescriptor(Opcode.MEMMOVE, pasid=space.pasid, size=0),
        _copy(space, 4 * KB),
        WorkDescriptor(Opcode.DRAIN, pasid=space.pasid),
    ]
    mixed = BatchDescriptor(descriptors=members, pasid=space.pasid)
    invalid = WorkDescriptor(Opcode.MEMMOVE, pasid=space.pasid, size=0)
    return _submit_all(platform, device, [empty, mixed, invalid, _copy(space, 4 * KB)])


def scenario_disabled_before_dispatch():
    config = DeviceConfig.single(wq_size=32, n_engines=1)
    platform, device, space = _device(spr_platform(device_config=config))
    env = platform.env
    descriptors = [_copy(space, 4 * KB) for _ in range(3)]

    def killer():
        yield env.timeout(device.timing.dispatch_ns / 2)
        platform.driver.disable("dsa0")

    env.process(killer(), name="test.disable")
    return _submit_all(platform, device, descriptors)


def scenario_injected_reset():
    platform, device, space = _device()
    descriptors = [_copy(space, 4 * KB) for _ in range(4)]
    plan = FaultPlan(seed=1, device_reset_at=(0.0,), device_reset_window_ns=150.0)
    with injection(plan):
        return _submit_all(platform, device, descriptors)


def scenario_remote_operand():
    platform = fleet_platform(sockets=2, devices_per_socket=1)
    platform, device, space = _device(platform)
    descriptors = [_copy(space, size, node=1) for size in (4 * KB, 16 * KB, 64 * KB)]
    descriptors += [_copy(space, 8 * KB, node=0), _copy(space, 8 * KB, flags=BOF0, node=1)]
    return _submit_all(platform, device, descriptors)


def scenario_traffic():
    size = 8 * KB
    profile = TrafficProfile(
        name="order",
        tenants=make_tenants(
            "d", 4, 1.5 * dsa_capacity(size), arrival="bursty", cv2=9.0,
            sizes=SizeDist(kind="fixed", size=size), max_retries=3,
        )
        + make_tenants(
            "c", 2, 0.5e-3, target="cpu", sizes=SizeDist(kind="fixed", size=4 * KB),
        ),
        cpu_cores=2,
        cpu_queue_limit=8,
    )
    config = DeviceConfig.single(wq_size=16, n_engines=4, mode=WqMode.SHARED)
    generator, _totals = drive_profile(profile, 600, device_config=config)
    return generator.platform, []


def scenario_fleet_loss():
    size = 8 * KB
    config = DeviceConfig.single(wq_size=128, n_engines=4, mode=WqMode.SHARED)
    platform = fleet_platform(sockets=2, devices_per_socket=2, device_config=config)
    profile = TrafficProfile(
        name="order-fleet",
        tenants=make_tenants(
            "t", 4, 8.0 * dsa_capacity(size, engines=4),
            sizes=SizeDist(kind="fixed", size=size), max_retries=4,
        ),
    )
    requests = 300
    generator = LoadGenerator(
        platform, profile, requests, fleet=FleetSpec(2, 2, "numa-local")
    )
    generator.start()
    env = platform.env
    horizon = requests / sum(t.rate for t in profile.tenants)

    def killer():
        yield env.timeout(horizon / 4)
        platform.driver.disable("dsa0")

    env.process(killer(), name="test.disable")
    env.run()
    generator.finalize()
    return platform, []


def scenario_cxl_destination():
    platform, device, space = _device(spr_platform(with_cxl=True))
    cxl = platform.memsys.node(2)
    descriptors = []
    for size in (4 * KB, 64 * KB, 256 * KB):
        src = space.allocate(size, node=0)
        dst = space.allocate(size, node=cxl.node_id)
        descriptors.append(
            WorkDescriptor(
                Opcode.MEMMOVE, pasid=space.pasid, flags=BOF1, src=src.va, dst=dst.va,
                size=size,
            )
        )
        src = space.allocate(size, node=cxl.node_id)
        dst = space.allocate(size, node=0)
        descriptors.append(
            WorkDescriptor(
                Opcode.MEMMOVE, pasid=space.pasid, flags=BOF1, src=src.va, dst=dst.va,
                size=size,
            )
        )
    _submit_all(platform, device, descriptors)
    # Both legs of the CXL multi-link flow and the non-DRAM DDIO write ran.
    assert cxl.internal_link.bytes_completed > 0
    assert cxl.write_link.bytes_completed > 0
    return platform, descriptors


def scenario_leaky_dma():
    platform = spr_platform(n_devices=3, socket_of=lambda _index: 0)
    descriptors = []
    devices = []
    for name in ("dsa0", "dsa1", "dsa2"):
        _platform, device, space = _device(platform, name)
        devices.append((device, [_copy(space, 1024 * KB) for _ in range(8)]))
    tracer = platform.env.tracer
    for device, batch in devices:
        for descriptor in batch:
            descriptor.trace_track = tracer.next_track()
            assert device.submit(descriptor)
        descriptors += batch
    platform.env.run()
    # DDIO-path writes to DRAM make no write flow: only leaked ones do.
    assert platform.memsys.node(0).write_link.bytes_completed > 0
    return platform, descriptors


def scenario_llc_operands():
    platform, device, space = _device()
    descriptors = []
    for size in (4 * KB, 64 * KB):
        src = space.allocate(size, in_llc=True)
        dst = space.allocate(size)
        descriptors.append(
            WorkDescriptor(
                Opcode.MEMMOVE, pasid=space.pasid, flags=BOF1, src=src.va, dst=dst.va,
                size=size,
            )
        )
        descriptors.append(
            _copy(space, size, flags=BOF1 | DescriptorFlags.CACHE_CONTROL)
        )
    dst = space.allocate(16 * KB, in_llc=True)
    descriptors.append(
        WorkDescriptor(Opcode.FILL, pasid=space.pasid, flags=BOF1, dst=dst.va, size=16 * KB)
    )
    _submit_all(platform, device, descriptors)
    # Only the two CACHE_CONTROL copies read DRAM; their writes (and the
    # in-LLC fill's) allocate into the core ways.
    assert platform.memsys.node(0).read_link.bytes_completed == 68 * KB
    assert platform.memsys.llc.occupancy(device.agent) > 0
    return platform, descriptors


def scenario_qos_weights():
    config = DeviceConfig(
        wqs=(WqConfig(0, size=16, priority=8), WqConfig(1, size=16, priority=1)),
        engines=(EngineConfig(0), EngineConfig(1)),
        groups=(GroupConfig(0, wq_ids=(0, 1), engine_ids=(0, 1)),),
    )
    platform, device, space = _device(spr_platform(device_config=config))
    tracer = platform.env.tracer
    descriptors = []
    for index in range(12):
        descriptor = _copy(space, (16 + 8 * (index % 3)) * KB)
        descriptor.trace_track = tracer.next_track()
        assert device.submit(descriptor, wq_id=index % 2)
        descriptors.append(descriptor)
    platform.env.run()
    # Port flows of both WQs carried their priority as fair-share weight.
    assert {d.dispatch_weight for d in descriptors} == {1.0, 8.0}
    return platform, descriptors


SCENARIOS = {
    "memmove": scenario_memmove,
    "partial_head": scenario_partial_head,
    "fault_at_zero": scenario_fault_at_zero,
    "unmapped": scenario_unmapped,
    "cache_flush": scenario_cache_flush,
    "drain": scenario_drain,
    "fenced_batch": scenario_fenced_batch,
    "invalid_batch": scenario_invalid_batch,
    "disabled_before_dispatch": scenario_disabled_before_dispatch,
    "injected_reset": scenario_injected_reset,
    "remote_operand": scenario_remote_operand,
    "traffic": scenario_traffic,
    "fleet_loss": scenario_fleet_loss,
    "cxl_destination": scenario_cxl_destination,
    "leaky_dma": scenario_leaky_dma,
    "llc_operands": scenario_llc_operands,
    "qos_weights": scenario_qos_weights,
}

#: sha256 prefixes of each scenario's outcome (see the module docstring).
GOLDEN = {
    "memmove": "f894258268a1864c73c06809",
    "partial_head": "7f772e33f5821db8f0cf9ec1",
    "fault_at_zero": "a1352e1d72c4d85cddbe30ee",
    "unmapped": "7eb84846b2ca72af8843e9ef",
    "cache_flush": "eb7971e1d45387c4f10308f1",
    "drain": "9a5956d4a507961b2b0a5ec6",
    "fenced_batch": "27e17497906ed5db05fce6e3",
    "invalid_batch": "c6a86cfbf9d99533cc98a0bf",
    "disabled_before_dispatch": "b5a5703dc60029b8a4b6551a",
    "injected_reset": "e843e59b51512e760334ea2f",
    "remote_operand": "37a8595def599d208544dd94",
    "traffic": "972276202bc41a499eae877a",
    "fleet_loss": "a93b42568675544cc0adba83",
    "cxl_destination": "81f8faf3db8abab4ddbbce98",
    "leaky_dma": "88bb6e54b78b6d2239b7b83e",
    "llc_operands": "0a69477d670d2f400e2b04cb",
    "qos_weights": "ad30483c903640f3e1e1aedb",
}


#: Calendar entries each scenario pushes (``env._seq``), recorded with
#: GOLDEN.  A rewrite that adds a hop or drops an entry can leave every
#: digest above unchanged when no other entry shares the instant; the
#: count still moves.
PUSHES = {
    "cache_flush": 24,
    "cxl_destination": 130,
    "disabled_before_dispatch": 10,
    "drain": 81,
    "fault_at_zero": 24,
    "fenced_batch": 72,
    "fleet_loss": 5806,
    "injected_reset": 17,
    "invalid_batch": 50,
    "leaky_dma": 435,
    "llc_operands": 74,
    "memmove": 64,
    "partial_head": 33,
    "qos_weights": 197,
    "remote_operand": 96,
    "traffic": 10330,
    "unmapped": 23,
}


def _rows(descriptors):
    rows = []
    for descriptor in descriptors:
        members = getattr(descriptor, "descriptors", ())
        for d in (descriptor, *members):
            times, record = d.times, d.completion
            rows.append(
                (
                    times.dispatched,
                    times.completed,
                    record.status.name,
                    record.bytes_completed,
                    record.fault_address,
                )
            )
    return rows


def _digest(platform, descriptors, log, tracer):
    outcome = (
        _rows(descriptors),
        log,
        sorted(platform.metrics_snapshot().items()),
        platform.env.now,
    )
    digest = hashlib.sha256(repr(outcome).encode())
    digest.update(json.dumps(chrome_trace_events(tracer), sort_keys=True).encode())
    return digest.hexdigest()[:24]


# The digests are the heap calendar's; the ids keep the ``heap-`` prefix
# they carried while a second calendar was checked against them.
@pytest.mark.parametrize("scenario", sorted(SCENARIOS), ids="heap-{}".format)
def test_event_order_is_golden(scenario, tracer, completions):
    platform, descriptors = SCENARIOS[scenario]()
    assert len(tracer) > 0
    assert _digest(platform, descriptors, completions, tracer) == GOLDEN[scenario]
    assert platform.env._seq == PUSHES[scenario]
