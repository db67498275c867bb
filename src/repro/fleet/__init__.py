"""Fleet-scale multi-device scheduling with failover.

Generalizes the DML layer's single-list round robin into a scheduler
over a ``sockets × devices_per_socket`` device fleet: pluggable
placement policies (:mod:`repro.fleet.policy`), driver-notified device
loss with re-route accounting (:mod:`repro.fleet.scheduler`), the
``--fleet`` topology knob (:mod:`repro.fleet.topology`), and the
closed-loop measurement harness (:mod:`repro.fleet.harness`) the
``fleet-scaling`` experiment and ``scripts/bench_fleet.py`` drive.

Every name here is re-exported lazily, so a run that only parses
``--fleet`` (``repro.exec.config`` imports :mod:`repro.fleet.topology`)
compiles neither the harness nor the runtime it drives.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first use.
_LAZY = {
    "FleetConfig": "repro.fleet.harness",
    "FleetResult": "repro.fleet.harness",
    "run_fleet": "repro.fleet.harness",
    "PlacementPolicy": "repro.fleet.policy",
    "RoundRobinPolicy": "repro.fleet.policy",
    "NumaLocalPolicy": "repro.fleet.policy",
    "LeastLoadedPolicy": "repro.fleet.policy",
    "POLICIES": "repro.fleet.policy",
    "policy_names": "repro.fleet.policy",
    "make_policy": "repro.fleet.policy",
    "FleetScheduler": "repro.fleet.scheduler",
    "FleetSpec": "repro.fleet.topology",
    "DEFAULT_FLEET": "repro.fleet.topology",
    "parse_fleet": "repro.fleet.topology",
    "set_default_fleet": "repro.fleet.topology",
    "set_default_placement": "repro.fleet.topology",
    "default_fleet": "repro.fleet.topology",
    "active_fleet": "repro.fleet.topology",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
