"""CPU core with cycle-category accounting.

The paper's Fig 11 reports the *share of cycles spent inside UMWAIT*
while offloading; Fig 5 reports where the time goes in the offload
path.  Both need per-category time accounting on the submitting core,
which is all this class does — the heavy lifting is in the simulator.
"""

from __future__ import annotations

import enum
from typing import Dict, TYPE_CHECKING

from repro.sim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import Counter


class CycleCategory(enum.Enum):
    """Where a core's wall-clock time went."""

    BUSY = "busy"  # executing application/software-kernel work
    ALLOC = "alloc"  # descriptor allocation
    PREPARE = "prepare"  # descriptor preparation (field writes)
    SUBMIT = "submit"  # MOVDIR64B / ENQCMD issue
    WAIT_SPIN = "wait_spin"  # spin-polling a completion record
    UMWAIT = "umwait"  # optimized wait state (low power)
    IDLE = "idle"


#: Every category, in definition order.  Each member's ``slot`` is its
#: position here and indexes :class:`CpuCore`'s totals, so booking time
#: hashes no member (``Enum.__hash__`` is a Python-level call).
_CATEGORIES = tuple(CycleCategory)
for _slot, _category in enumerate(_CATEGORIES):
    _category.slot = _slot
del _slot, _category


class CpuCore:
    """One hardware thread; accumulates time per category."""

    def __init__(self, env: Environment, core_id: int = 0, frequency_ghz: float = 2.0):
        if frequency_ghz <= 0:
            raise ValueError(f"frequency must be positive, got {frequency_ghz}")
        self.env = env
        self.core_id = core_id
        self.frequency_ghz = frequency_ghz
        #: Cached tracer agent label — the submit/prepare hot paths used
        #: to rebuild this f-string once per descriptor.
        self.trace_agent = f"core{core_id}"
        #: Time per category, indexed by ``CycleCategory.slot``.
        self._time = [0.0] * len(_CATEGORIES)
        #: ``<agent>.wait.<mode>_ns`` counters keyed by the wait mode's
        #: ``slot`` (``repro.runtime.op.WaitMode``), created on this
        #: core's first wait in that mode.
        self.wait_counters: Dict[int, Counter] = {}

    def account(self, category: CycleCategory, duration_ns: float) -> None:
        if duration_ns < 0:
            raise ValueError(f"negative duration: {duration_ns}")
        self._time[category.slot] += duration_ns

    def spend(self, category: CycleCategory, duration_ns: float):
        """Timeout event that also books the time (yield from callers)."""
        self.account(category, duration_ns)
        return self.env.timeout(duration_ns)

    def time_in(self, category: CycleCategory) -> float:
        return self._time[category.slot]

    def times(self) -> Dict[CycleCategory, float]:
        """Copy of the per-category time table (snapshot harvesting)."""
        return dict(zip(_CATEGORIES, self._time))

    def cycles_in(self, category: CycleCategory) -> float:
        return self._time[category.slot] * self.frequency_ghz

    @property
    def accounted_time(self) -> float:
        return sum(self._time)

    def fraction(self, category: CycleCategory) -> float:
        """Share of accounted time spent in ``category`` (Fig 11 metric)."""
        total = self.accounted_time
        return self._time[category.slot] / total if total else 0.0

    def reset(self) -> None:
        self._time = [0.0] * len(_CATEGORIES)
