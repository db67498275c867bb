"""The fault injector and its install-pattern global.

A :class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultPlan`
into per-site decisions.  Model components (the device ATC, shared work
queues, the processing engine) read the module attribute :data:`active`
on their hot paths; when nothing is installed — or the installed plan
injects nothing — it is ``None`` and the component takes its normal
path, so a disabled injector is byte-identical to no injector at all.

Determinism: all stochastic draws come from child streams of
``make_rng(plan.seed)`` (``seed=None`` resolves the installed run seed),
and each site owns its own stream, so interleaving of, say, page
translations and ENQCMD submissions cannot perturb either sequence.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional, Set, Tuple

from repro.faults.plan import FaultKind, FaultPlan
from repro.sim.rng import derive, make_rng

#: Default 4 KiB page granularity for per-page fault decisions.
PAGE_SIZE = 4096


class FaultInjector:
    """Stateful decision engine for one installed :class:`FaultPlan`."""

    def __init__(self, plan: FaultPlan):
        plan.validate()
        self.plan = plan
        root = make_rng(plan.seed)
        self._page_rng = derive(root, 0)
        self._swq_rng = derive(root, 1)
        self._scripted = list(plan.scripted_vas)
        self._faulted_pages: Set[Tuple[int, int]] = set()
        self._translations = 0
        self._swq_burst_left = 0
        # Plain-int counters: the injector outlives any one Environment,
        # so it cannot own MetricsRegistry counters itself; components
        # that consult it mirror events into their own registries.
        self.injected_page_faults = 0
        self.injected_major_faults = 0
        self.injected_shootdowns = 0
        self.injected_swq_rejects = 0
        self.injected_device_resets = 0

    # -- page faults -------------------------------------------------------

    def page_fault(
        self, pasid: int, va: int, page_size: int = PAGE_SIZE
    ) -> Optional[FaultKind]:
        """Decide whether the translation of ``va`` faults; None = no."""
        plan = self.plan
        page = va // page_size
        if self._scripted:
            for i, scripted in enumerate(self._scripted):
                if scripted // page_size == page:
                    del self._scripted[i]
                    return self._record_fault(pasid, page)
        if plan.page_fault_rate <= 0.0:
            return None
        if plan.fault_once_per_page and (pasid, page) in self._faulted_pages:
            return None
        if float(self._page_rng.random()) >= plan.page_fault_rate:
            return None
        return self._record_fault(pasid, page)

    def _record_fault(self, pasid: int, page: int) -> FaultKind:
        plan = self.plan
        self._faulted_pages.add((pasid, page))
        self.injected_page_faults += 1
        if (
            plan.major_fault_fraction > 0.0
            and float(self._page_rng.random()) < plan.major_fault_fraction
        ):
            self.injected_major_faults += 1
            return FaultKind.MAJOR
        return FaultKind.MINOR

    def service_latency_ns(self, kind: FaultKind) -> float:
        return self.plan.service_latency_ns(kind)

    # -- ATC shoot-downs ---------------------------------------------------

    def shootdown_due(self) -> bool:
        """Called once per device translation; True = flush the ATC now."""
        every = self.plan.atc_shootdown_every
        if every <= 0:
            return False
        self._translations += 1
        if self._translations % every == 0:
            self.injected_shootdowns += 1
            return True
        return False

    # -- SWQ congestion ----------------------------------------------------

    def swq_reject(self) -> bool:
        """Called once per ENQCMD; True = bounce it with a retry status."""
        plan = self.plan
        if self._swq_burst_left > 0:
            self._swq_burst_left -= 1
            self.injected_swq_rejects += 1
            return True
        if plan.swq_reject_rate <= 0.0:
            return False
        if float(self._swq_rng.random()) >= plan.swq_reject_rate:
            return False
        self._swq_burst_left = plan.swq_burst_length - 1
        self.injected_swq_rejects += 1
        return True

    # -- transient device resets -------------------------------------------

    def device_reset(self, now: float) -> bool:
        """True when ``now`` falls inside any configured reset window."""
        plan = self.plan
        for start in plan.device_reset_at:
            if start <= now < start + plan.device_reset_window_ns:
                self.injected_device_resets += 1
                return True
        return False


#: Session-wide injector; see :func:`install_injector`.
_installed: Optional[FaultInjector] = None

#: What :func:`active_injector` returns, precomputed so a hot path pays
#: an attribute read, not a call.  Every change to ``_installed`` goes
#: through :func:`_set_installed`; a plan is frozen, so whether it
#: injects anything cannot change while it is installed.
active: Optional[FaultInjector] = None


def _set_installed(injector: Optional[FaultInjector]) -> None:
    global _installed, active
    _installed = injector
    active = injector if injector is not None and injector.plan.injects_anything else None


def install_injector(plan_or_injector) -> FaultInjector:
    """Make a fault injector active for every subsequent model run.

    Accepts a :class:`FaultPlan` (wrapped in a fresh injector) or an
    existing :class:`FaultInjector`.  A run's ``--fault-rate`` is
    installed by :meth:`repro.exec.config.RunConfig.installed`, which
    builds a fresh injector per experiment, so serial and ``--jobs N``
    runs inject identically.
    """
    if isinstance(plan_or_injector, FaultInjector):
        injector = plan_or_injector
    elif isinstance(plan_or_injector, FaultPlan):
        injector = FaultInjector(plan_or_injector)
    else:
        raise TypeError(
            "install_injector takes a FaultPlan or FaultInjector, got "
            f"{type(plan_or_injector).__name__}"
        )
    _set_installed(injector)
    return injector


def uninstall_injector() -> None:
    _set_installed(None)


def active_injector() -> Optional[FaultInjector]:
    """The injector hot paths should consult, or None when disabled.

    Returns ``None`` both when nothing is installed and when the
    installed plan injects nothing, so call sites need a single check.
    Hot paths read the same value as the attribute :data:`active`.
    """
    return active


@contextlib.contextmanager
def injection(plan_or_injector) -> Iterator[FaultInjector]:
    """Scoped install: restores whatever was active before on exit."""
    previous = _installed
    injector = install_injector(plan_or_injector)
    try:
        yield injector
    finally:
        _set_installed(previous)
