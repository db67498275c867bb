"""Golden event order of the runtime request path.

Each scenario drives one branch of ``repro.runtime`` — descriptor
preparation, MOVDIR64B / ENQCMD submission, the three wait modes, the
DML sync and async API, and ``recover``'s partial-completion loop with
fleet re-routing — and hashes everything the calendar's pop order
decides:

* each descriptor's timestamps, status, ``bytes_completed``, fault
  address and result;
* what each runtime call returned (or raised), and when;
* the order in which the devices completed descriptors;
* the metrics snapshot, the final ``env.now`` and ``env._seq``;
* the exported Chrome trace, with a live tracer installed.

The digests are fixed: a rewrite of the runtime path that moves one
calendar entry relative to another, adds or drops one, or moves one
traced span changes them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.dsa.config import DeviceConfig, WqMode
from repro.dsa.descriptor import DescriptorPool
from repro.dsa.device import DsaDevice
from repro.dsa.opcodes import Opcode
from repro.faults.inject import injection
from repro.faults.plan import FaultPlan
from repro.fleet import harness
from repro.fleet.harness import FleetConfig, run_fleet
from repro.fleet.policy import make_policy
from repro.fleet.scheduler import FleetScheduler
from repro.mem.address import AddressSpace
from repro.obs.export import chrome_trace_events
from repro.obs.tracer import Tracer, install_tracer, installed_tracer
from repro.platform import fleet_platform, spr_platform
from repro.runtime.dml import Dml, DmlJob, DmlPath
from repro.runtime.dto import Dto
from repro.runtime.recovery import RetryPolicy, recover
from repro.runtime.submit import prepare_descriptor, submit
from repro.runtime.wait import WaitMode, wait_for
from repro.sim import rng

KB = 1024
PAGE = 4 * KB
PASID = 91


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
        record = descriptor.completion
        log.append(
            (
                device.name,
                device.env.now,
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


# -- building blocks ------------------------------------------------------------


class Run:
    """One scenario's platform, the descriptors it made and its call log."""

    def __init__(self, platform):
        self.platform = platform
        self.env = platform.env
        self.descriptors = []
        self.log = []

    def space(self):
        return AddressSpace(pasid=PASID)

    def dml(self, space, names=("dsa0",), **kwargs):
        portals = [self.platform.open_portal(name, 0, space) for name in names]
        return Dml(
            self.env,
            portals,
            kernels=self.platform.kernels,
            costs=self.platform.costs,
            space=space,
            **kwargs,
        )

    def copy(self, dml, size, prefault=True, mapped=None, backed=False, bof=True):
        space = dml.space
        src = space.allocate(size, prefault=prefault, backed=backed)
        dst = space.allocate(size, backed=backed)
        if mapped:
            space.page_table.map_range(src.va, mapped)
        descriptor = dml.make_descriptor(
            Opcode.MEMMOVE, size, src=src, dst=dst, block_on_fault=bof
        )
        self.descriptors.append(descriptor)
        return descriptor

    def call(self, label, generator):
        """``yield from`` a runtime call; log its value (or error) and time."""
        try:
            value = yield from generator
        except RuntimeError as error:
            value = f"raised {type(error).__name__}: {error}"
        shown = value
        if isinstance(value, DmlJob):
            shown = ("job", value.portal.device.name, value.software, value.done)
        self.log.append((label, self.env.now, repr(shown)))
        return value

    def start(self, body, name):
        self.env.process(body(), name=name)

    def finish(self):
        self.env.run()
        return self


# -- scenarios --------------------------------------------------------------------


def scenario_fleet_failover():
    """run_fleet on a 2x2 fleet losing dsa0: reroutes through recover."""
    made = []
    platforms = []
    make_descriptor = Dml.make_descriptor
    build = harness.fleet_platform

    def recording_make(self, *args, **kwargs):
        descriptor = make_descriptor(self, *args, **kwargs)
        made.append(descriptor)
        return descriptor

    def recording_build(*args, **kwargs):
        platforms.append(build(*args, **kwargs))
        return platforms[-1]

    cfg = FleetConfig(
        sockets=2, devices_per_socket=2, queue_depth=4, workers_per_socket=2,
        iterations=12, local_buffers=False, placement="round-robin",
        disable_device="dsa0", disable_at_ns=500.0,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Dml, "make_descriptor", recording_make)
        patch.setattr(harness, "fleet_platform", recording_build)
        result = run_fleet(cfg)
    assert result.rerouted > 0
    run = Run(platforms[0])
    run.descriptors = made
    run.log.append(
        (
            "fleet", result.completed, result.rerouted, result.to_software,
            result.bytes_hardware, result.bytes_software, result.elapsed_ns,
            result.latency.values,
        )
    )
    return run


def scenario_fleet_all_lost():
    """Every device dies mid-run: select() finds no live portal, tails
    degrade to software and failovers book ``to_software``."""
    config = DeviceConfig.single(wq_size=8, n_engines=1, mode=WqMode.SHARED)
    run = Run(fleet_platform(sockets=2, devices_per_socket=1, device_config=config))
    space = run.space()
    portals = [run.platform.open_portal(n, 0, space) for n in ("dsa0", "dsa1")]
    scheduler = FleetScheduler(run.platform.driver, portals, make_policy("numa-local"))
    dml = run.dml(space, names=(), scheduler=scheduler)
    policy = RetryPolicy(max_retries=2, backoff_base_ns=300.0)
    for worker in range(6):
        core = run.platform.core(worker)

        def body(core=core, worker=worker):
            for index in range(3):
                descriptor = run.copy(dml, 64 * KB)
                yield from run.call(
                    f"w{worker}.{index}",
                    recover(dml, core, descriptor, policy, scheduler=scheduler,
                            socket=worker % 2),
                )

        run.start(body, f"worker{worker}")

    def killer():
        yield run.env.timeout(300.0)
        run.platform.driver.disable("dsa0")
        yield run.env.timeout(20_000.0)
        run.platform.driver.disable("dsa1")

    run.start(killer, "killer")
    # A reset window on the survivor: its DEVICE_DISABLED completions
    # find no other live device and book failover to software.
    plan = FaultPlan(seed=1, device_reset_at=(0.0,), device_reset_window_ns=6_000.0)
    with injection(plan):
        return run.finish()


def scenario_dto_resume():
    """Dto over BOF=0 descriptors: faults resume from bytes_completed;
    sub-threshold calls take the software path."""
    run = Run(spr_platform())
    space = run.space()
    dml = run.dml(space)
    dto = Dto(dml, min_size=4 * KB, policy=RetryPolicy(max_retries=4),
              block_on_fault=False)
    core = run.platform.core(0)
    src = space.allocate(16 * KB, prefault=False, backed=True)
    dst = space.allocate(16 * KB, backed=True)
    space.page_table.map_range(src.va, 2 * PAGE)
    src.fill_random(rng.make_rng(5))
    small = space.allocate(2 * KB, backed=True)

    def body():
        yield from run.call("memcpy", dto.memcpy(core, dst, src, 16 * KB))
        yield from run.call("memcmp", dto.memcmp(core, dst, src, 16 * KB))
        yield from run.call("memset", dto.memset(core, small, 0x5A, 2 * KB))
        run.log.append(("stats", repr(dto.stats)))

    run.start(body, "dto")
    return run.finish()


def scenario_pool_resume():
    """recover() with a DescriptorPool recycling its resume clones."""
    run = Run(spr_platform())
    space = run.space()
    dml = run.dml(space)
    pool = DescriptorPool(limit=4)
    core = run.platform.core(0)
    policy = RetryPolicy(max_retries=6, backoff_base_ns=500.0, touch_page_ns=250.0)

    def body():
        for index in range(3):
            descriptor = run.copy(dml, 4 * PAGE, prefault=False, bof=False)
            yield from run.call(
                f"recover{index}", recover(dml, core, descriptor, policy, pool=pool)
            )
        run.log.append(("pool", pool.reuses, pool.released, len(pool)))

    run.start(body, "pool")
    return run.finish()


def scenario_degrade():
    """Retries exhaust: the tail degrades to software (traced), or the
    failure surfaces when degradation is off."""
    run = Run(spr_platform())
    space = run.space()
    dml = run.dml(space)
    core = run.platform.core(0)

    def body():
        descriptor = run.copy(dml, 4 * PAGE, prefault=False, mapped=PAGE, bof=False,
                              backed=True)
        yield from run.call(
            "degrade", recover(dml, core, descriptor, RetryPolicy(max_retries=1))
        )
        descriptor = run.copy(dml, 4 * PAGE, prefault=False, bof=False)
        yield from run.call(
            "surface",
            recover(dml, core, descriptor,
                    RetryPolicy(max_retries=1, degrade_to_software=False)),
        )
        descriptor = run.copy(dml, 4 * PAGE, prefault=False, bof=False)
        yield from run.call(
            "pooled",
            recover(dml, core, descriptor, RetryPolicy(max_retries=0),
                    pool=DescriptorPool()),
        )

    run.start(body, "degrade")
    return run.finish()


def scenario_deadline():
    """deadline_ns cuts the recovery short after the first backoff."""
    run = Run(spr_platform())
    space = run.space()
    dml = run.dml(space)
    core = run.platform.core(0)
    policy = RetryPolicy(max_retries=10, backoff_base_ns=1_000.0, deadline_ns=2_500.0)

    def body():
        descriptor = run.copy(dml, 6 * PAGE, prefault=False, bof=False)
        yield from run.call("deadline", recover(dml, core, descriptor, policy))

    run.start(body, "deadline")
    return run.finish()


def scenario_device_reset():
    """An injected reset completes DEVICE_DISABLED: retried from scratch
    on the same portal (no scheduler)."""
    run = Run(spr_platform())
    space = run.space()
    dml = run.dml(space)
    core = run.platform.core(0)
    plan = FaultPlan(seed=1, device_reset_at=(0.0,), device_reset_window_ns=400.0)

    def body():
        descriptor = run.copy(dml, 16 * KB, bof=False)
        yield from run.call(
            "reset",
            recover(dml, core, descriptor, RetryPolicy(max_retries=3, backoff_base_ns=2_000.0)),
        )

    with injection(plan):
        run.start(body, "reset")
        return run.finish()


def scenario_no_live_portal():
    """Without a scheduler, recover() on a DML whose devices are all
    down degrades straight to software (with and without degradation)."""
    run = Run(spr_platform(n_devices=2))
    space = run.space()
    dml = run.dml(space, names=("dsa0", "dsa1"))
    core = run.platform.core(0)

    def body():
        descriptor = run.copy(dml, 16 * KB)
        yield from run.call("live", recover(dml, core, descriptor))
        run.platform.driver.disable("dsa0")
        run.platform.driver.disable("dsa1")
        descriptor = run.copy(dml, 16 * KB)
        yield from run.call("dead", recover(dml, core, descriptor))
        descriptor = run.copy(dml, 16 * KB)
        yield from run.call(
            "dead-surface",
            recover(dml, core, descriptor, RetryPolicy(degrade_to_software=False)),
        )
        descriptor = run.copy(dml, 16 * KB)
        yield from run.call("auto", dml.execute(core, descriptor))
        descriptor = run.copy(dml, 16 * KB)
        yield from run.call(
            "hardware", dml.execute(core, descriptor, path=DmlPath.HARDWARE)
        )

    run.start(body, "no-live")
    return run.finish()


def scenario_umwait_deadline():
    """UMWAIT with a TSC deadline: wakes re-arm until the completion
    lands; a long deadline is cancelled when the completion wins."""
    run = Run(spr_platform())
    space = run.space()
    dml = run.dml(space)
    portal = dml.portals[0]
    core = run.platform.core(0)
    costs = run.platform.costs

    def body():
        for label, size, max_wait in (("short", 256 * KB, 150.0), ("long", 4 * KB, 1e6)):
            descriptor = run.copy(dml, size)
            yield from prepare_descriptor(run.env, core, descriptor, costs)
            yield from submit(run.env, core, portal, descriptor, costs)
            yield from run.call(
                label,
                wait_for(run.env, core, descriptor, WaitMode.UMWAIT, costs,
                         max_wait_ns=max_wait),
            )

    run.start(body, "umwait")
    return run.finish()


def scenario_spin_interrupt():
    """SPIN and INTERRUPT waits, through the DML sync path and wait_for,
    with two cores sharing one DWQ."""
    config = DeviceConfig.single(wq_size=32, mode=WqMode.DEDICATED)
    run = Run(spr_platform(device_config=config))
    space = run.space()
    spin = run.dml(space, wait_mode=WaitMode.SPIN)
    costs = run.platform.costs

    def spinner():
        core = run.platform.core(0)
        for index, size in enumerate((4 * KB, 64 * KB, 16 * KB)):
            descriptor = run.copy(spin, size)
            yield from run.call(f"spin{index}", spin.execute(core, descriptor))

    def sleeper():
        core = run.platform.core(1)
        portal = spin.portals[0]
        for index, size in enumerate((32 * KB, 8 * KB)):
            descriptor = run.copy(spin, size)
            yield from prepare_descriptor(run.env, core, descriptor, costs)
            yield from submit(run.env, core, portal, descriptor, costs)
            yield from run.call(
                f"interrupt{index}",
                wait_for(run.env, core, descriptor, WaitMode.INTERRUPT, costs),
            )

    run.start(spinner, "spin")
    run.start(sleeper, "sleep")
    return run.finish()


def scenario_dwq_movdir64b():
    """DWQ MOVDIR64B through the async API, the DML op wrappers, an
    allocating prepare, and the AUTO path's software fallback."""
    config = DeviceConfig.single(wq_size=16, mode=WqMode.DEDICATED)
    run = Run(spr_platform(device_config=config))
    space = run.space()
    dml = run.dml(space)
    core = run.platform.core(0)
    costs = run.platform.costs
    a = space.allocate(16 * KB, backed=True)
    b = space.allocate(16 * KB, backed=True)
    a.fill_random(rng.make_rng(3))

    def body():
        jobs = []
        for size in (4 * KB, 64 * KB, 8 * KB):
            descriptor = run.copy(dml, size)
            job = yield from run.call("async", dml.submit_async(core, descriptor))
            jobs.append(job)
        for job in reversed(jobs):
            yield from run.call("job", dml.wait(core, job))
        yield from run.call("move", dml.mem_move(core, a, b, 16 * KB))
        yield from run.call("compare", dml.compare(core, a, b, 16 * KB))
        yield from run.call("crc", dml.crc(core, a, 16 * KB, path=DmlPath.HARDWARE))
        yield from run.call("fill", dml.fill(core, b, 2 * KB, 0x11, path=DmlPath.AUTO))
        descriptor = run.copy(dml, 32 * KB)
        yield from prepare_descriptor(run.env, core, descriptor, costs, allocate=True)
        yield from run.call("movdir", submit(run.env, core, dml.portals[0], descriptor, costs))
        yield from run.call("wait", dml.wait(core, jobs[0]))
        yield from run.call(
            "software", dml.run_software(core, run.copy(dml, 8 * KB), in_llc=True)
        )
        run.log.append(("jobs", dml.jobs_hardware, dml.jobs_software))

    run.start(body, "dwq")
    return run.finish()


def scenario_swq_enqcmd():
    """SWQ ENQCMD: retries under a 1-entry queue, and the bounded retry
    loop raising into its caller."""
    config = DeviceConfig.single(wq_size=1, n_engines=1, mode=WqMode.SHARED)
    run = Run(spr_platform(device_config=config))
    space = run.space()
    dml = run.dml(space)
    portal = dml.portals[0]
    costs = run.platform.costs

    def flooder(core_id, bounded):
        core = run.platform.core(core_id)
        for index in range(20):
            descriptor = run.copy(dml, 1024 * KB)
            yield from run.call(
                f"c{core_id}.{index}",
                submit(run.env, core, portal, descriptor, costs,
                       max_retries=bounded, source=f"s{core_id}"),
            )

    def execute():
        core = run.platform.core(2)
        for index in range(3):
            descriptor = run.copy(dml, 64 * KB)
            yield from run.call(f"exec{index}", dml.execute(core, descriptor))

    run.start(lambda: flooder(0, None), "unbounded")
    run.start(lambda: flooder(1, 2), "bounded")
    run.start(execute, "execute")
    return run.finish()


def scenario_dwq_overflow():
    """MOVDIR64B into a full DWQ: the SubmissionError is thrown into a
    submit caller, and recover() takes its no-live-portal path."""
    config = DeviceConfig.single(wq_size=2, n_engines=1, mode=WqMode.DEDICATED)
    run = Run(spr_platform(device_config=config))
    space = run.space()
    dml = run.dml(space)
    portal = dml.portals[0]
    costs = run.platform.costs

    def flooder():
        core = run.platform.core(0)
        for index in range(40):
            descriptor = run.copy(dml, 1024 * KB)
            yield from run.call(f"movdir{index}", submit(run.env, core, portal, descriptor, costs))

    def recoverer():
        core = run.platform.core(1)
        # Its first MOVDIR64B lands while the flood has the queue full.
        yield run.env.timeout(255.0)
        for index in range(3):
            descriptor = run.copy(dml, 64 * KB)
            yield from run.call(f"recover{index}", recover(dml, core, descriptor))

    run.start(flooder, "flooder")
    run.start(recoverer, "recoverer")
    return run.finish()


SCENARIOS = {
    "fleet_failover": scenario_fleet_failover,
    "fleet_all_lost": scenario_fleet_all_lost,
    "dto_resume": scenario_dto_resume,
    "pool_resume": scenario_pool_resume,
    "degrade": scenario_degrade,
    "deadline": scenario_deadline,
    "device_reset": scenario_device_reset,
    "no_live_portal": scenario_no_live_portal,
    "umwait_deadline": scenario_umwait_deadline,
    "spin_interrupt": scenario_spin_interrupt,
    "dwq_movdir64b": scenario_dwq_movdir64b,
    "swq_enqcmd": scenario_swq_enqcmd,
    "dwq_overflow": scenario_dwq_overflow,
}

#: sha256 prefixes of each scenario's outcome (see the module docstring).
GOLDEN = {
    "deadline": "3677ae45c4fd536c0f84d27a",
    "degrade": "c665cab8b2aabb0c19994dc8",
    "device_reset": "bfa6046e81c58754a1e6f832",
    "dto_resume": "3f3111e14af1225434e38899",
    "dwq_overflow": "09e0212427b0c9bbbfd20e00",
    "dwq_movdir64b": "2d84e06dfff41457b2818428",
    "fleet_all_lost": "013839cffdfe938819d97a3c",
    "fleet_failover": "53c7ca1955313a99ed07eebe",
    "no_live_portal": "7bd8ab74549b5d1c1f00918e",
    "pool_resume": "7835ff0def59a7e8bbfd7088",
    "spin_interrupt": "d132deef8026af7e1102bb15",
    "swq_enqcmd": "dc6add1c2d4f1cfa94439645",
    "umwait_deadline": "b39d835c48b08c146a3fba57",
}

#: Calendar entries each scenario pushes (``env._seq``), recorded with
#: GOLDEN: a rewrite that adds or drops a hop moves the count even when
#: no other entry shares its instant.
PUSHES = {
    "deadline": 37,
    "degrade": 90,
    "device_reset": 31,
    "dto_resume": 84,
    "dwq_overflow": 657,
    "dwq_movdir64b": 141,
    "fleet_all_lost": 321,
    "fleet_failover": 1200,
    "no_live_portal": 25,
    "pool_resume": 291,
    "spin_interrupt": 98,
    "swq_enqcmd": 7057,
    "umwait_deadline": 195,
}


def _rows(descriptors):
    rows = []
    for d in descriptors:
        times, record = d.times, d.completion
        rows.append(
            (
                times.allocated,
                times.prepared,
                times.submitted,
                times.dispatched,
                times.completed,
                record.status.name,
                record.bytes_completed,
                record.fault_address,
                record.result,
            )
        )
    return rows


def _digest(run, log, tracer):
    outcome = (
        _rows(run.descriptors),
        run.log,
        log,
        sorted(run.platform.metrics_snapshot().items()),
        run.env.now,
    )
    digest = hashlib.sha256(repr(outcome).encode())
    digest.update(json.dumps(chrome_trace_events(tracer), sort_keys=True).encode())
    return digest.hexdigest()[:24]


# The digests are the heap calendar's; the ids keep the ``heap-`` prefix
# they carried while a second calendar was checked against them.
@pytest.mark.parametrize("scenario", sorted(SCENARIOS), ids="heap-{}".format)
def test_runtime_order_is_golden(scenario, tracer, completions):
    run = SCENARIOS[scenario]()
    assert len(tracer) > 0
    assert _digest(run, completions, tracer) == GOLDEN[scenario]
    assert run.env._seq == PUSHES[scenario]
