"""The ``--fleet`` topology knob (install pattern).

Follows :mod:`repro.traffic.tiers`: a run installs a process-wide
default from its :class:`repro.exec.config.RunConfig` (``--fleet SxD
--placement P``) around every experiment, and fleet-aware layers (the
traffic ``drive_profile`` harness, the ``fleet-scaling`` experiment)
read :func:`active_fleet` — no threading through ``run(quick=...)``
signatures.

A :class:`FleetSpec` is the parameterized topology SCALE-Sim-style
sweeps expand: ``sockets × devices_per_socket`` DSA instances plus the
placement policy name the scheduler instantiates per run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.fleet.policy import POLICIES

__all__ = [
    "FleetSpec",
    "DEFAULT_FLEET",
    "parse_fleet",
    "set_default_fleet",
    "set_default_placement",
    "default_fleet",
    "active_fleet",
]


@dataclass(frozen=True)
class FleetSpec:
    """One fleet topology: how many devices, where, and how placed."""

    sockets: int = 1
    devices_per_socket: int = 1
    placement: str = "round-robin"

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ValueError(f"sockets must be >= 1, got {self.sockets}")
        if self.devices_per_socket < 1:
            raise ValueError(
                f"devices_per_socket must be >= 1, got {self.devices_per_socket}"
            )
        if self.placement not in POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"choose from {sorted(POLICIES)}"
            )

    @property
    def n_devices(self) -> int:
        return self.sockets * self.devices_per_socket

    @property
    def is_default(self) -> bool:
        """True for the single-device topology (anchors stay byte-identical)."""
        return self == DEFAULT_FLEET

    def key(self) -> str:
        """Stable string form (``"2x4:numa-local"``) for cache salting."""
        return f"{self.sockets}x{self.devices_per_socket}:{self.placement}"

    def socket_of_device(self, index: int) -> int:
        """Home socket of device ``dsa{index}`` (grouped by socket)."""
        return index // self.devices_per_socket


#: The single-device topology every existing experiment anchors against.
DEFAULT_FLEET = FleetSpec()


def parse_fleet(text: str) -> Tuple[int, int]:
    """Parse a ``--fleet`` value like ``"2x4"`` → ``(2, 4)``."""
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(
            f"--fleet expects SOCKETSxDEVICES (e.g. '2x4'), got {text!r}"
        )
    try:
        sockets, devices = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(
            f"--fleet expects SOCKETSxDEVICES (e.g. '2x4'), got {text!r}"
        ) from None
    if sockets < 1 or devices < 1:
        raise ValueError(f"--fleet dimensions must be >= 1, got {text!r}")
    return sockets, devices


_default_fleet = DEFAULT_FLEET


def set_default_fleet(spec: Optional[str]) -> None:
    """Install the process-wide fleet topology (the CLI's ``--fleet``).

    ``None`` or ``"1x1"`` restores the default single-device topology.
    The placement policy installed earlier is preserved.
    """
    global _default_fleet
    if spec is None:
        sockets, devices = 1, 1
    else:
        sockets, devices = parse_fleet(spec)
    _default_fleet = replace(
        _default_fleet, sockets=sockets, devices_per_socket=devices
    )


def set_default_placement(name: str) -> None:
    """Install the process-wide placement policy (``--placement``)."""
    global _default_fleet
    _default_fleet = replace(_default_fleet, placement=name)


def default_fleet() -> FleetSpec:
    """The installed fleet spec (``DEFAULT_FLEET`` unless overridden)."""
    return _default_fleet


def active_fleet() -> FleetSpec:
    """Alias of :func:`default_fleet`, matching ``active_tier`` naming."""
    return _default_fleet
