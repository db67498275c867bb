"""Scale tiers for the traffic serving mode (SCALE_THRESHOLDS style).

The traffic experiments are the first part of the reproduction whose
interesting regime is *production scale* — hundreds to thousands of
tenants, millions of requests — which no CI budget can afford on every
push.  Instead of quietly shrinking the workload, the scale is an
explicit, documented contract: a small tier that anchors in tier-1 CI,
a medium tier for local calibration, and a large tier a nightly job
runs at the full ~2M-request scale.  ``docs/TRAFFIC.md`` carries the
same table with expected timings.

The active tier is a process-wide default that a run installs from its
:class:`repro.exec.config.RunConfig` (``--tier``) around every
experiment, serial or in a worker, and experiments read
:func:`active_tier` — no threading through ``run(quick=...)``
signatures.  The same module holds the ``--traffic`` arrival-process
override (force every tenant to Poisson/bursty/diurnal arrivals) since
the two flags travel together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "ScaleTier",
    "TIERS",
    "TRAFFIC_MODES",
    "tier_names",
    "set_default_tier",
    "default_tier",
    "active_tier",
    "set_default_traffic",
    "default_traffic",
]


@dataclass(frozen=True)
class ScaleTier:
    """One row of the scale-threshold table.

    ``requests`` is the total arrival budget *per traffic experiment*
    (split across that experiment's sweep points); ``tenants`` is the
    tenant population the profiles scale to.  ``expected_wall_s`` is
    the documented per-experiment wall-clock guidance the nightly job's
    timeout is derived from — a contract, not a benchmark result.
    """

    name: str
    requests: int
    tenants: int
    expected_wall_s: float
    use_case: str

    def validate(self) -> None:
        if self.requests < 1 or self.tenants < 1:
            raise ValueError(f"tier {self.name}: requests and tenants must be >= 1")


#: The scale-threshold table.  Keep in sync with docs/TRAFFIC.md.
TIERS: Dict[str, ScaleTier] = {
    "small": ScaleTier(
        name="small",
        requests=10_000,
        tenants=128,
        expected_wall_s=30.0,
        use_case="tier-1 CI: anchor-checked on every push",
    ),
    "medium": ScaleTier(
        name="medium",
        requests=200_000,
        tenants=512,
        expected_wall_s=300.0,
        use_case="local calibration / memory-envelope baseline",
    ),
    "large": ScaleTier(
        name="large",
        requests=2_000_000,
        tenants=2048,
        expected_wall_s=3000.0,
        use_case="nightly job: production-scale tails at constant memory",
    ),
}

#: ``--traffic`` override values: ``default`` keeps each tenant's own
#: declared arrival process; the rest force one process family on all.
TRAFFIC_MODES: Tuple[str, ...] = ("default", "poisson", "bursty", "diurnal")

_default_tier = "small"
_default_traffic = "default"


def tier_names() -> Tuple[str, ...]:
    return tuple(TIERS)


def set_default_tier(name: str) -> None:
    """Install the process-wide scale tier (the CLI's ``--tier``)."""
    global _default_tier
    if name not in TIERS:
        raise ValueError(f"unknown scale tier {name!r}; choose from {sorted(TIERS)}")
    _default_tier = name


def default_tier() -> str:
    """The installed tier name."""
    return _default_tier


def active_tier() -> ScaleTier:
    """The installed tier's row of the table."""
    return TIERS[_default_tier]


def set_default_traffic(mode: str) -> None:
    """Install the process-wide arrival override (the CLI's ``--traffic``)."""
    global _default_traffic
    if mode not in TRAFFIC_MODES:
        raise ValueError(
            f"unknown traffic mode {mode!r}; choose from {list(TRAFFIC_MODES)}"
        )
    _default_traffic = mode


def default_traffic() -> str:
    """The installed arrival override (``"default"`` = per-tenant)."""
    return _default_traffic
