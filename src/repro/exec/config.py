"""One run's configuration: the knobs every experiment of a run reads.

Experiments take only ``run(quick=...)``; the rest of a run's
configuration reaches them through process globals read at the point
of use: the default RNG seed, the traffic tier and arrival override,
the fleet topology and placement, and the fault injector.
:class:`RunConfig` is the one object that says what those globals hold
for a run.  It is built once (by the CLI from its flags, or read from
the process with :meth:`RunConfig.current`), validated once at
construction, pickled whole to worker processes, and installed per
experiment by :meth:`RunConfig.installed` — in-process and in a worker
alike, so a serial run and a ``--jobs N`` run see the same values.
Its :attr:`~RunConfig.variant` is the cache-key salt.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.exec.cache import variant_string
from repro.faults import FaultPlan, injection
from repro.fleet import topology
from repro.fleet.topology import FleetSpec, parse_fleet
from repro.sim import rng
from repro.traffic import tiers


@dataclass(frozen=True)
class RunConfig:
    """The CLI's run knobs as one frozen, picklable value."""

    seed: int = rng.DEFAULT_SEED
    tier: str = "small"
    traffic: str = "default"
    #: ``SOCKETSxDEVICES``; stored in that canonical spelling, so every
    #: way of typing one topology salts the cache the same.
    fleet: str = "1x1"
    placement: str = "round-robin"
    #: Page-fault injection rate; ``None`` installs no injector.
    fault_rate: Optional[float] = None
    #: Seed of the injection streams; ``None`` means the run seed.
    fault_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise TypeError(f"seed must be an int, got {type(self.seed).__name__}")
        for what, value, allowed in (
            ("scale tier", self.tier, tuple(tiers.TIERS)),
            ("traffic mode", self.traffic, tiers.TRAFFIC_MODES),
        ):
            if value not in allowed:
                raise ValueError(f"unknown {what} {value!r}; choose from {list(allowed)}")
        sockets, devices = parse_fleet(self.fleet)
        object.__setattr__(self, "fleet", f"{sockets}x{devices}")
        self.fleet_spec  # checks the placement policy
        if self.fault_rate is not None:
            self._fault_plan().validate()

    @classmethod
    def current(cls) -> "RunConfig":
        """The values this process has installed right now."""
        fleet = topology.active_fleet()
        return cls(
            seed=rng.installed_seed(),
            tier=tiers.default_tier(),
            traffic=tiers.default_traffic(),
            fleet=f"{fleet.sockets}x{fleet.devices_per_socket}",
            placement=fleet.placement,
        )

    @property
    def fleet_spec(self) -> FleetSpec:
        return FleetSpec(*parse_fleet(self.fleet), placement=self.placement)

    @property
    def variant(self) -> str:
        """Cache-key salt: every knob but the seed, defaults elided.

        The seed has its own field in the key.  The fault fields are
        salted only when set, so every fault-free key is unchanged.
        """
        return variant_string(
            tier=self.tier,
            traffic=self.traffic,
            fleet=self.fleet,
            placement=self.placement,
            fault_rate=self.fault_rate,
            fault_seed=None if self.fault_rate is None else self.fault_seed,
        )

    def _fault_plan(self) -> FaultPlan:
        return FaultPlan(page_fault_rate=self.fault_rate, seed=self.fault_seed)

    def _install(self) -> None:
        """Point every knob's process global at this config's value.

        The values were validated at construction, so they are written
        straight to the globals the model reads.
        """
        rng.install_seed(self.seed)
        tiers._default_tier = self.tier
        tiers._default_traffic = self.traffic
        topology._default_fleet = self.fleet_spec

    @contextlib.contextmanager
    def installed(self) -> Iterator["RunConfig"]:
        """Install every knob for the body; restore the previous values.

        With a fault rate, a fresh injector is built *after* the seed is
        installed, so a plan without its own seed draws from this run's
        seed, and no experiment sees another's injection state.  Without
        one, whatever injector the caller installed stays active.
        """
        previous = RunConfig.current()
        self._install()
        try:
            if self.fault_rate is None:
                yield self
            else:
                with injection(self._fault_plan()):
                    yield self
        finally:
            previous._install()
