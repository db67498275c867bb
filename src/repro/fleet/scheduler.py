"""Cross-device portal selection with device-loss failover.

The :class:`FleetScheduler` owns one portal per (device, WQ) pair the
application opened, delegates placement to a
:class:`~repro.fleet.policy.PlacementPolicy`, and subscribes to the
driver's enable/disable notifications so a device taken down mid-run
disappears from the candidate set immediately — no polling, no stale
round robin (the bug this layer replaces in ``Dml._next_portal``).

Metric families (see docs/OBSERVABILITY.md):

* ``fleet.devices_live`` — gauge, live-device count over time;
* ``fleet.<dev>.selected`` — placements routed to each device;
* ``fleet.<dev>.failover.events`` — disable notifications observed;
* ``fleet.<dev>.failover.rerouted`` — descriptors that failed on
  ``<dev>`` and re-landed on a surviving device;
* ``fleet.<dev>.failover.to_software`` — descriptors that failed on
  ``<dev>`` and finished on the software kernels;
* ``fleet.<dev>.failover.absorbed`` — re-routed descriptors ``<dev>``
  accepted from a failed peer.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Tuple

from repro.fleet.policy import PlacementPolicy, RoundRobinPolicy
from repro.obs.metrics import Counter
from repro.runtime.driver import IdxdDriver, Portal

__all__ = ["FleetScheduler"]


class FleetScheduler:
    """Placement + failover across a fleet of device portals."""

    def __init__(
        self,
        driver: IdxdDriver,
        portals: List[Portal],
        policy: Optional[PlacementPolicy] = None,
    ):
        if not portals:
            raise ValueError("fleet scheduler needs at least one portal")
        self.driver = driver
        self.env = driver.env
        self.portals = list(portals)
        self.policy = policy or RoundRobinPolicy()
        #: Portals of enabled devices, rebuilt on each driver
        #: notification instead of on each placement.
        self._live = self._enabled_portals()
        #: ``fleet.<dev>.selected`` counters, created on first placement.
        self._m_selected: Dict[str, Counter] = {}
        driver.subscribe(self._on_device_event)
        self._m_live = self.env.metrics.gauge("fleet.devices_live")
        self._m_live.update(self.env.now, self._live_count())

    # -- driver notifications ------------------------------------------------
    def _enabled_portals(self) -> Tuple[Portal, ...]:
        return tuple(p for p in self.portals if p.device.enabled)

    def _live_count(self) -> int:
        return len({p.device.name for p in self._live})

    def _on_device_event(self, name: str, enabled: bool) -> None:
        self._live = self._enabled_portals()
        self._m_live.update(self.env.now, self._live_count())
        if not enabled and any(p.device.name == name for p in self.portals):
            self.env.metrics.counter(f"fleet.{name}.failover.events").add()

    # -- selection -----------------------------------------------------------
    def live_portals(self, exclude: Collection[str] = ()) -> Tuple[Portal, ...]:
        """Portals whose device is enabled and not in ``exclude``."""
        if not exclude:
            return self._live
        return tuple(p for p in self._live if p.device.name not in exclude)

    def select(
        self,
        socket: Optional[int] = None,
        exclude: Collection[str] = (),
    ) -> Portal:
        """Choose a live portal for one submission.

        ``socket`` is the submitter's socket (NUMA-aware policies prefer
        local devices); ``exclude`` masks devices by name — the failover
        path excludes the device that just failed.  Raises
        ``RuntimeError`` when no live portal remains.
        """
        candidates = self.live_portals(exclude)
        if not candidates:
            raise RuntimeError("fleet has no live device portal")
        portal = self.policy.choose(candidates, socket=socket)
        name = portal.device.name
        counter = self._m_selected.get(name)
        if counter is None:
            counter = self._m_selected[name] = self.env.metrics.counter(
                f"fleet.{name}.selected"
            )
        counter.add()
        return portal

    # -- failover accounting ---------------------------------------------------
    def record_failover(self, failed: str, target: Optional[str]) -> None:
        """Book one re-route away from ``failed`` (``None`` = software)."""
        base = f"fleet.{failed}.failover"
        if target is None:
            self.env.metrics.counter(f"{base}.to_software").add()
        else:
            self.env.metrics.counter(f"{base}.rerouted").add()
            self.env.metrics.counter(f"fleet.{target}.failover.absorbed").add()
