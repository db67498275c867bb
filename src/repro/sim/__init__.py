"""Discrete-event simulation kernel.

This subpackage provides the event-driven substrate on which every
hardware model in :mod:`repro` runs: a simulated clock, generator-based
processes, and queueing resources.  It is intentionally a small,
self-contained engine in the style of SimPy, implemented from scratch so
the reproduction has no external simulation dependency.

Typical usage::

    from repro.sim import Environment

    env = Environment()

    def producer(env, store):
        for i in range(3):
            yield env.timeout(1.0)
            yield store.put(i)

    ...
    env.run()

Timers are cancellable: any scheduled event (most usefully a
``Timeout``) supports ``event.cancel()`` — its callbacks never run, the
calendar entry is discarded lazily (bulk-compacted past
``engine.CALENDAR_COMPACT_THRESHOLD``), and a later ``succeed``/``fail``
on a cancelled pending event raises :class:`SimulationError`.  The
environment counts the churn as ``env.cancelled_events`` /
``env.stale_timers`` and publishes the pair to the metrics registry as
``sim.cancelled_events`` / ``sim.stale_timers`` when ``run()`` returns.
Model code that re-arms a wake timer on every state change (see
:class:`repro.mem.link.FairShareLink`) cancels the stale timer instead
of letting it fire into a version-check no-op.
"""

from repro.sim.arrivals import (
    ArrivalProcess,
    BurstyProcess,
    DiurnalProcess,
    PoissonProcess,
    open_loop,
)
from repro.sim.engine import (
    Condition,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.stats import Histogram, OnlineStat, TimeWeightedStat
from repro.sim.rng import (
    DEFAULT_SEED,
    BatchedStream,
    install_seed,
    installed_seed,
    make_rng,
    uninstall_seed,
)

__all__ = [
    "DEFAULT_SEED",
    "BatchedStream",
    "install_seed",
    "installed_seed",
    "uninstall_seed",
    "ArrivalProcess",
    "BurstyProcess",
    "DiurnalProcess",
    "PoissonProcess",
    "open_loop",
    "Condition",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Resource",
    "Store",
    "Histogram",
    "OnlineStat",
    "TimeWeightedStat",
    "make_rng",
]
