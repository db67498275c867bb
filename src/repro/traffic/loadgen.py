"""Open-loop multi-tenant load generator over DSA SWQs + a CPU pool.

The serving mode the ROADMAP calls for: hundreds to thousands of
:class:`~repro.traffic.profile.TenantSpec` tenants, each driven by its
own arrival process through :func:`repro.sim.arrivals.open_loop`,
multiplexed onto shared work queues with bounded ENQCMD retry/backoff
and explicit shed accounting — nothing blocks an open-loop arrival
stream, requests that exhaust their retry budget are *dropped* and
counted, exactly like an overloaded server.

Tenants targeting ``"cpu"`` instead run on a :class:`CpuServicePool`:
``cpu_cores`` workers serving the calibrated software-kernel times from
a bounded backlog (arrivals beyond ``cpu_queue_limit`` shed).  That
gives the crossover experiment a CPU completion path with the same
open-loop drop semantics as the device path.

Memory discipline matches the rest of the repo: per-tenant buffers are
pre-allocated at the size distribution's ceiling, descriptors recycle
through a per-tenant :class:`~repro.dsa.descriptor.DescriptorPool`, and
all accounting streams through the
:class:`~repro.traffic.slo.SloAccountant` — a 2M-request run holds no
per-request state beyond what is in flight.

Determinism: tenant ``i`` draws arrivals from derived stream ``i`` and
sizes from stream ``SIZE_STREAM_BASE + i``, both seeded from the
installed run seed, so serial and ``--jobs N`` runs (and any request
batching) are draw-for-draw identical.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple

from repro.cpu.swlib import SoftwareKernels
from repro.dsa.config import DeviceConfig, WqMode
from repro.dsa.descriptor import DescriptorPool, WorkDescriptor
from repro.dsa.errors import StatusCode
from repro.dsa.opcodes import Opcode
from repro.fleet.policy import make_policy
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.topology import FleetSpec, active_fleet
from repro.mem.address import AddressSpace
from repro.platform import Platform, fleet_platform, spr_platform
from repro.sim.arrivals import OpenLoop, open_loop
from repro.sim.engine import Environment, Event
from repro.traffic.profile import TenantSpec, TrafficProfile
from repro.traffic.slo import SloAccountant

__all__ = ["CpuServicePool", "LoadGenerator", "drive_profile"]

#: Per-tenant descriptor free-list depth; beyond this, completions in
#: flight simply allocate (the pool is a fast path, not a correctness
#: bound).
TENANT_POOL_LIMIT = 64


class CpuServicePool:
    """Bounded-backlog pool of CPU workers serving software kernels.

    ``try_submit`` is the open-loop admission point: it returns a
    completion :class:`~repro.sim.engine.Event` or ``None`` when the
    backlog is at ``queue_limit`` (the request is shed — the caller
    accounts the drop).  Workers serve FIFO, each request occupying one
    worker for the calibrated ``kernels.time(opcode, size)``.

    A worker is a chain of bare calendar entries (:class:`_CpuWorker`):
    one at start-up, one per wake-up of a parked worker, and one per
    service time.  They are pushed where a generator process per worker
    would push its boot event, wake event and service timeout, so the
    calendar pops as it does for that form (the frozen copy in
    ``tests/traffic/reference_pool.py``).
    """

    def __init__(
        self,
        env: Environment,
        kernels: SoftwareKernels,
        cores: int = 2,
        queue_limit: int = 256,
        name: str = "cpu_pool",
    ):
        if cores < 1:
            raise ValueError(f"need at least one worker core, got {cores}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.env = env
        self.kernels = kernels
        self.cores = cores
        self.queue_limit = queue_limit
        self.name = name
        self._queue: Deque[Tuple[float, Event]] = deque()
        #: Parked workers; ``try_submit`` wakes the newest.
        self._idle: List[_CpuWorker] = []
        self.admitted = 0
        self.shed = 0
        self.served = 0
        self._m_shed = env.metrics.counter(f"{name}.shed")
        self._m_depth = env.metrics.gauge(f"{name}.depth")
        for _ in range(cores):
            env.call_in(0.0, _CpuWorker(self).next)

    @property
    def depth(self) -> int:
        return len(self._queue)

    def try_submit(self, opcode: Opcode, size: int, in_llc: bool = False) -> Optional[Event]:
        """Admit one request, or shed it (``None``) when the backlog is full."""
        if len(self._queue) >= self.queue_limit:
            self.shed += 1
            self._m_shed.add()
            return None
        done = Event(self.env)
        self._queue.append((self.kernels.time(opcode, size, in_llc=in_llc), done))
        self.admitted += 1
        self._m_depth.update(self.env._now, len(self._queue))
        if self._idle:
            self.env.call_in(0.0, self._idle.pop().next)
        return done


class _CpuWorker:
    """One core of a :class:`CpuServicePool`, as bare calendar entries.

    :meth:`next` takes the oldest queued request, or parks the worker
    when the backlog is empty (a parked worker holds no calendar entry,
    so a run ends cleanly with workers parked); :meth:`finish` ends a
    service and goes on to the next request.
    """

    __slots__ = ("pool", "done")

    def __init__(self, pool: CpuServicePool):
        self.pool = pool
        self.done: Optional[Event] = None

    def next(self) -> None:
        pool = self.pool
        queue = pool._queue
        if not queue:
            pool._idle.append(self)
            return
        service_ns, self.done = queue.popleft()
        env = pool.env
        pool._m_depth.update(env._now, len(queue))
        env.call_in(service_ns, self.finish)

    def finish(self) -> None:
        pool = self.pool
        pool.served += 1
        self.done.succeed(pool.env._now)
        self.next()


class _TenantState:
    """Runtime companion of one TenantSpec (buffers, pool, samplers)."""

    __slots__ = ("spec", "index", "sizes", "pool", "src", "dst", "device", "wq", "socket")

    def __init__(self, spec: TenantSpec, index: int):
        self.spec = spec
        self.index = index
        self.sizes = spec.size_sampler(index)
        self.pool = DescriptorPool(limit=TENANT_POOL_LIMIT)
        self.src = None
        self.dst = None
        self.device = None
        self.wq = None
        #: Submitter socket under fleet placement (NUMA-aware policies).
        self.socket = 0


class _DsaRequest:
    """One open-loop DSA request, driven by callbacks.

    Placement, ENQCMD attempts with capped exponential backoff, the
    completion wait and (under fleet placement) failover to a surviving
    device.  Each fixed hop pushes a bare calendar entry carrying the
    next stage where a generator would have yielded a timeout; the
    completion wait hangs on the descriptor's completion event.
    """

    __slots__ = (
        "gen",
        "state",
        "arrived",
        "size",
        "descriptor",
        "attempts",
        "failed_device",
        "device",
        "wq_id",
        "wq",
    )

    def __init__(self, gen: "LoadGenerator", state: _TenantState, arrived: float):
        self.gen = gen
        self.state = state
        self.arrived = arrived

    def start(self) -> None:
        gen = self.gen
        state = self.state
        spec = state.spec
        gen.accountant.offered(spec.name, self.arrived)
        self.size = state.sizes.next()
        descriptor = state.pool.acquire()
        if descriptor is None:
            descriptor = WorkDescriptor(opcode=spec.opcode)
        descriptor.opcode = spec.opcode
        descriptor.pasid = gen.space.pasid
        descriptor.src = state.src.va
        descriptor.dst = state.dst.va
        descriptor.size = self.size
        self.descriptor = descriptor
        self.attempts = 0
        self.failed_device = None
        device = state.device
        if device is None:
            self._place()
            return
        # Statically placed: straight to the first ENQCMD.
        self.device = device
        self.wq_id = spec.wq_id
        self.wq = state.wq
        gen.platform.env.call_in(device.timing.enqcmd_ns, self._submit)

    def _place(self) -> None:
        """Fleet placement: the scheduler picks the device (and WQ)."""
        gen = self.gen
        state = self.state
        scheduler = gen.scheduler
        env = gen.platform.env
        failed_device = self.failed_device
        try:
            portal = scheduler.select(
                socket=state.socket,
                exclude=(failed_device,) if failed_device else (),
            )
        except RuntimeError:
            # Fleet-wide device loss: nothing live to place on.
            env.metrics.counter("traffic.fleet.no_live_portal").add()
            if failed_device is not None:
                scheduler.record_failover(failed_device, None)
            self._drop()
            return
        if failed_device is not None:
            scheduler.record_failover(failed_device, portal.device.name)
            env.metrics.counter("traffic.fleet.reroutes").add()
            self.failed_device = None
        device = self.device = portal.device
        wq_id = self.wq_id = portal.wq_id
        self.wq = device.wq(wq_id)
        self._enqcmd()

    def _enqcmd(self) -> None:
        # Each attempt pays the full non-posted ENQCMD round trip.
        self.gen.platform.env.call_in(self.device.timing.enqcmd_ns, self._submit)

    def _submit(self) -> None:
        spec = self.state.spec
        descriptor = self.descriptor
        if self.device.submit(descriptor, self.wq_id, spec.name):
            if self.attempts:
                self.wq.record_retries(self.attempts, spec.name)
            descriptor.completion_event.callbacks.append(self._completed)
            return
        attempts = self.attempts = self.attempts + 1
        if attempts > spec.max_retries:
            # Retry budget exhausted: shed the request.  The retries
            # still hit the WQ's attribution counters — congestion
            # must not vanish from the metrics when it sheds load.
            self.wq.record_retries(attempts, spec.name)
            self._drop()
            return
        self.gen.platform.env.call_in(
            min(spec.backoff_base_ns * (2.0 ** (attempts - 1)), spec.backoff_cap_ns),
            self._enqcmd,
        )

    def _completed(self, _event: Event) -> None:
        gen = self.gen
        state = self.state
        spec = state.spec
        descriptor = self.descriptor
        status = descriptor.completion.status
        if status.is_success:
            now = gen.platform.env._now
            gen.accountant.completed(
                spec.name, now, now - self.arrived, self.size, retries=self.attempts
            )
            state.pool.release(descriptor)
            return
        # The device failed the request (DEVICE_DISABLED from a
        # driver disable or reset window).  Under fleet placement a
        # disabled device triggers failover: re-place on a survivor
        # within the tenant's retry budget.  Without a scheduler
        # there is nowhere else to go — the request is dropped, not
        # silently counted as completed.
        self.attempts += 1
        if (
            gen.scheduler is None
            or state.device is not None
            or status is not StatusCode.DEVICE_DISABLED
            or self.attempts > spec.max_retries
        ):
            self._drop()
            return
        self.failed_device = self.device.name
        # Scrub the consumed completion so resubmission gets a fresh
        # completion event on the surviving device.
        descriptor.completion_event = None
        descriptor.completion.status = StatusCode.NONE
        descriptor.completion.bytes_completed = 0
        self._place()

    def _drop(self) -> None:
        state = self.state
        self.gen.accountant.dropped(
            state.spec.name, self.gen.platform.env._now, retries=self.attempts
        )
        state.pool.release(self.descriptor)


class LoadGenerator:
    """Drives one :class:`TrafficProfile` through a platform, open loop.

    Per-tenant request counts are apportioned from ``requests`` by the
    largest-remainder rule over tenant rates, so the total is exactly
    ``requests`` and the split is deterministic.  Call :meth:`start`
    (or :func:`drive_profile`) and then run the environment; every
    request ends in exactly one of the accountant's ``completed`` or
    ``dropped`` ledgers.
    """

    def __init__(
        self,
        platform: Platform,
        profile: TrafficProfile,
        requests: int,
        accountant: Optional[SloAccountant] = None,
        arrival_override: Optional[str] = None,
        fleet: Optional[FleetSpec] = None,
    ):
        profile.validate()
        if requests < 1:
            raise ValueError(f"requests must be >= 1, got {requests}")
        self.platform = platform
        self.profile = profile
        self.requests = requests
        self.arrival_override = arrival_override
        self.fleet = fleet
        # Explicit None test: a fresh SloAccountant has len() == 0 and is
        # falsy, so ``accountant or ...`` would silently discard it.
        if accountant is None:
            accountant = SloAccountant(window_ns=profile.window_ns)
        self.accountant = accountant
        self.space = AddressSpace()
        self.cpu_pool: Optional[CpuServicePool] = None
        self._states: List[_TenantState] = []
        self._drivers: List[OpenLoop] = []
        self._finalized_totals: Optional[Dict[str, int]] = None

        env = platform.env
        needs_cpu = any(t.targets_cpu for t in profile.tenants)
        if needs_cpu:
            self.cpu_pool = CpuServicePool(
                env,
                platform.kernels,
                cores=profile.cpu_cores,
                queue_limit=profile.cpu_queue_limit,
                name="traffic.cpu_pool",
            )
        self.scheduler: Optional[FleetScheduler] = None
        fleet_sockets = 1
        if fleet is not None and not fleet.is_default:
            # Fleet placement: open one SWQ portal per device and let the
            # placement policy (not the tenant's static ``target``) route
            # every request.  Tenants spread round-robin across sockets
            # so NUMA-aware policies see submitters on every socket.
            fleet_sockets = platform.memsys.topology.sockets
            portals = [
                platform.open_portal(name, 0, self.space)
                for name in sorted(platform.driver.devices)
            ]
            for portal in portals:
                if portal.device.wq(portal.wq_id).mode is not WqMode.SHARED:
                    raise ValueError(
                        f"fleet device {portal.device.name} WQ {portal.wq_id} is "
                        "dedicated; fleet traffic placement needs shared WQs"
                    )
            self.scheduler = FleetScheduler(
                platform.driver, portals, policy=make_policy(fleet.placement)
            )
        for index, spec in enumerate(profile.tenants):
            state = _TenantState(spec, index)
            self.accountant.register(spec)
            if not spec.targets_cpu:
                if self.scheduler is not None and spec.qos_priority is None:
                    # Fleet-placed tenant: the scheduler routes every
                    # request; no static portal.  QoS-pinned tenants fall
                    # through and keep their declared target/WQ — a
                    # priority contract is device-local by construction.
                    state.socket = index % fleet_sockets
                    bound = spec.sizes.resolved_max
                    state.src = self.space.allocate(bound, node=state.socket)
                    state.dst = self.space.allocate(bound, node=state.socket)
                    self._states.append(state)
                    continue
                portal = platform.open_portal(spec.target, spec.wq_id, self.space)
                state.device = portal.device
                state.wq = portal.device.wq(spec.wq_id)
                if state.wq.mode is not WqMode.SHARED:
                    raise ValueError(
                        f"tenant {spec.name}: target {spec.target} WQ {spec.wq_id} is "
                        "dedicated; open-loop multi-tenant traffic needs a shared WQ"
                    )
                if (
                    spec.qos_priority is not None
                    and state.wq.priority != spec.qos_priority
                ):
                    raise ValueError(
                        f"tenant {spec.name}: declared qos_priority "
                        f"{spec.qos_priority} but {spec.target} WQ {spec.wq_id} is "
                        f"configured at priority {state.wq.priority}"
                    )
                bound = spec.sizes.resolved_max
                state.src = self.space.allocate(bound)
                state.dst = self.space.allocate(bound)
            self._states.append(state)

    # -- request apportionment -------------------------------------------
    def request_counts(self) -> List[int]:
        """Largest-remainder split of ``requests`` proportional to rate."""
        tenants = self.profile.tenants
        total_rate = self.profile.total_rate
        raw = [self.requests * t.rate / total_rate for t in tenants]
        counts = [int(x) for x in raw]
        shortfall = self.requests - sum(counts)
        by_remainder = sorted(
            range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True
        )
        for i in by_remainder[:shortfall]:
            counts[i] += 1
        return counts

    # -- lifecycle --------------------------------------------------------
    def start(self) -> List[OpenLoop]:
        """Launch one open-loop driver per tenant; returns the drivers."""
        if self._drivers:
            raise RuntimeError("LoadGenerator.start called twice")
        env = self.platform.env
        for state, count in zip(self._states, self.request_counts()):
            if count == 0:
                continue
            arrivals = state.spec.arrivals(
                state.index, override=self.arrival_override
            )
            handler = self._handler(state)
            self._drivers.append(
                open_loop(env, arrivals, handler, count=count)
            )
        return self._drivers

    def _handler(self, state: _TenantState):
        env = self.platform.env
        if state.spec.targets_cpu:
            def on_arrival(index: int, now: float) -> None:
                self._cpu_arrival(state, now)
        else:
            def on_arrival(index: int, now: float) -> None:
                # Boot entry: the request starts when this pops.
                env.call_in(0.0, _DsaRequest(self, state, now).start)
        return on_arrival

    # -- CPU completion path ----------------------------------------------
    def _cpu_arrival(self, state: _TenantState, now: float) -> None:
        spec = state.spec
        acct = self.accountant
        acct.offered(spec.name, now)
        size = state.sizes.next()
        done = self.cpu_pool.try_submit(spec.opcode, size)
        if done is None:
            acct.dropped(spec.name, now)
            return
        # ``done`` triggers only after a worker's service timeout pops,
        # so the accounting can hang straight off it.
        done.callbacks.append(partial(self._cpu_done, spec.name, now, size))

    def _cpu_done(self, tenant: str, arrived: float, size: int, done: Event) -> None:
        finished = done.value
        self.accountant.completed(tenant, finished, finished - arrived, size)

    # -- results ----------------------------------------------------------
    def finalize(self) -> Dict[str, int]:
        """Close SLO windows and publish ``traffic.*`` metrics (idempotent)."""
        if self._finalized_totals is None:
            self._finalized_totals = self.accountant.finalize(
                self.platform.env.now, self.platform.env.metrics
            )
        return self._finalized_totals


def drive_profile(
    profile: TrafficProfile,
    requests: int,
    device_config=None,
    timing=None,
    n_devices: int = 1,
    arrival_override: Optional[str] = None,
    shadow_exact: bool = False,
    fleet: Optional[FleetSpec] = None,
) -> Tuple[LoadGenerator, Dict[str, int]]:
    """Build a platform, run ``profile`` to completion, finalize accounts.

    The one-call harness the experiments and benches use: returns the
    generator (for accountant/percentile queries) and the finalized
    totals.  Conservation is asserted here — every offered request must
    land in exactly one of completed/dropped.  The default device layout
    is one 128-entry SWQ fed by 4 engines (multi-tenant ENQCMD needs a
    shared queue; ``DeviceConfig.single()``'s DWQ would reject it).

    ``fleet`` (default: the installed ``--fleet`` topology, see
    :mod:`repro.fleet.topology`) switches the platform to
    ``sockets × devices_per_socket`` devices with scheduler-routed
    placement; the default ``1x1`` spec keeps the historical
    single-device layout byte-identical.
    """
    if device_config is None:
        device_config = DeviceConfig.single(wq_size=128, n_engines=4, mode=WqMode.SHARED)
    spec = fleet if fleet is not None else active_fleet()
    if not spec.is_default:
        if n_devices != 1:
            raise ValueError(
                "pass either n_devices or a fleet topology, not both "
                f"(n_devices={n_devices}, fleet={spec.key()})"
            )
        platform = fleet_platform(
            sockets=spec.sockets,
            devices_per_socket=spec.devices_per_socket,
            device_config=device_config,
            timing=timing,
        )
    else:
        platform = spr_platform(
            n_devices=n_devices, device_config=device_config, timing=timing
        )
    accountant = SloAccountant(
        window_ns=profile.window_ns, shadow_exact=shadow_exact
    )
    generator = LoadGenerator(
        platform,
        profile,
        requests,
        accountant=accountant,
        arrival_override=arrival_override,
        fleet=spec if not spec.is_default else None,
    )
    generator.start()
    platform.env.run()
    totals = generator.finalize()
    if totals["offered"] != totals["completed"] + totals["dropped"]:
        raise RuntimeError(
            f"traffic conservation broken: offered {totals['offered']} != "
            f"completed {totals['completed']} + dropped {totals['dropped']}"
        )
    if totals["offered"] != requests:
        raise RuntimeError(
            f"traffic drive incomplete: offered {totals['offered']} of "
            f"{requests} requested"
        )
    return generator, totals
