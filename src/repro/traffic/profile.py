"""Tenant and profile declarations for the traffic serving mode.

A :class:`TenantSpec` is one tenant's contract with the load generator:
its arrival process (Poisson / bursty H2 / diurnal rate envelope), its
request-size distribution, the completion path it targets (a device SWQ
or the CPU service pool), its bounded ENQCMD retry policy, and its SLO
declaration.  A :class:`TrafficProfile` is a named set of tenants plus
the knobs shared by a run (SLO window length, CPU pool shape).

Everything here is frozen declaration — the runtime state (arrival
cursors, size-draw buffers, descriptor pools) lives in
:mod:`repro.traffic.loadgen` so one profile can drive many runs.

Determinism: per-tenant randomness derives from the installed run seed
through disjoint stream ids (tenant index for arrivals, a separate
namespace for sizes), so serial and ``--jobs N`` runs are draw-for-draw
identical — same rule as :mod:`repro.sim.arrivals`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import numpy as np

from repro.dsa.config import DsaTimingParams
from repro.dsa.opcodes import Opcode
from repro.sim.arrivals import (
    ArrivalProcess,
    BurstyProcess,
    DiurnalProcess,
    PoissonProcess,
)
from repro.sim.rng import DEFAULT_BATCH, derive, make_rng

__all__ = [
    "Slo",
    "SizeDist",
    "TenantSpec",
    "TrafficProfile",
    "make_tenants",
    "dsa_capacity",
    "cpu_capacity",
    "SIZE_STREAM_BASE",
]

#: Stream-id namespace offset for per-tenant size draws, keeping them
#: disjoint from the arrival streams (which use the bare tenant index).
SIZE_STREAM_BASE = 1_000_000

ARRIVAL_KINDS = ("poisson", "bursty", "diurnal")
TARGET_CPU = "cpu"


@dataclass(frozen=True)
class Slo:
    """A tenant's latency objective, in the repo-wide ns time unit.

    ``None`` fields are unconstrained.  A window violates the SLO when
    requests were offered but none completed (starvation), or when a
    declared percentile target is exceeded (see
    :class:`repro.traffic.slo.SloAccountant`).
    """

    p99_ns: Optional[float] = None
    p999_ns: Optional[float] = None

    def validate(self) -> None:
        for label, value in (("p99_ns", self.p99_ns), ("p999_ns", self.p999_ns)):
            if value is not None and value <= 0:
                raise ValueError(f"slo {label} must be positive, got {value}")


@dataclass(frozen=True)
class SizeDist:
    """Request-size distribution (bytes).

    * ``fixed`` — every request is ``size`` bytes.
    * ``lognormal`` — median ``size``, shape ``sigma``; draws clamp to
      ``[min_size, max_size]`` so tenant buffers can be pre-allocated.
    * ``choice`` — discrete ``choices`` with ``weights``.
    """

    kind: str = "fixed"
    size: int = 4096
    sigma: float = 0.8
    choices: Tuple[int, ...] = ()
    weights: Tuple[float, ...] = ()
    min_size: int = 64
    max_size: int = 0  # 0 = derived (see resolved_max)

    def validate(self) -> None:
        if self.kind not in ("fixed", "lognormal", "choice"):
            raise ValueError(f"unknown size distribution kind {self.kind!r}")
        if self.kind == "choice":
            if not self.choices:
                raise ValueError("choice size distribution needs choices")
            if self.weights and len(self.weights) != len(self.choices):
                raise ValueError("weights must match choices 1:1")
            if any(c < 1 for c in self.choices):
                raise ValueError("choice sizes must be >= 1 byte")
        elif self.size < 1:
            raise ValueError(f"size must be >= 1 byte, got {self.size}")
        if self.kind == "lognormal" and self.sigma <= 0:
            raise ValueError(f"lognormal sigma must be positive, got {self.sigma}")
        if self.min_size < 1:
            raise ValueError("min_size must be >= 1")

    @property
    def resolved_max(self) -> int:
        """Largest size a draw can produce (buffer pre-allocation bound)."""
        if self.kind == "fixed":
            return self.size
        if self.kind == "choice":
            return max(self.choices)
        if self.max_size:
            return self.max_size
        # +3 sigma in log space, rounded up — the clamp ceiling.
        return int(math.ceil(self.size * math.exp(3.0 * self.sigma)))

    @property
    def mean(self) -> float:
        """Expected request size (capacity-planning estimate)."""
        if self.kind == "fixed":
            return float(self.size)
        if self.kind == "choice":
            if not self.weights:
                return float(sum(self.choices)) / len(self.choices)
            total = float(sum(self.weights))
            return sum(c * w for c, w in zip(self.choices, self.weights)) / total
        return float(self.size) * math.exp(0.5 * self.sigma * self.sigma)

    def sampler(self, rng: np.random.Generator, batch: int = DEFAULT_BATCH):
        """A batched scalar sampler bound to ``rng`` (see loadgen)."""
        return _SizeSampler(self, rng, batch)


class _SizeSampler:
    """Amortized-O(1) size draws: vectorized refills, scalar hand-out.

    ``fixed`` consumes no randomness at all, so mixing fixed and
    stochastic tenants never perturbs each other's streams.
    """

    __slots__ = ("dist", "rng", "batch", "_buf", "_pos")

    def __init__(self, dist: SizeDist, rng: np.random.Generator, batch: int):
        self.dist = dist
        self.rng = rng
        self.batch = batch
        self._buf: Optional[memoryview] = None
        self._pos = 0

    def _refill(self) -> np.ndarray:
        dist = self.dist
        if dist.kind == "lognormal":
            draws = self.rng.lognormal(math.log(dist.size), dist.sigma, size=self.batch)
            return np.clip(np.rint(draws), dist.min_size, dist.resolved_max)
        # choice
        weights = None
        if dist.weights:
            weights = np.asarray(dist.weights, dtype=float)
            weights = weights / weights.sum()
        return self.rng.choice(np.asarray(dist.choices), size=self.batch, p=weights)

    def next(self) -> int:
        if self.dist.kind == "fixed":
            return self.dist.size
        buf = self._buf
        if buf is None or self._pos >= len(buf):
            # One conversion per batch, not an int() per draw: the
            # view's items are Python ints.
            buf = self._buf = memoryview(self._refill().astype(np.int64))
            self._pos = 0
        value = buf[self._pos]
        self._pos += 1
        return value


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's declaration (arrivals, sizes, target, retry, SLO)."""

    name: str
    rate: float                        # arrivals per simulated ns
    cohort: str = "default"            # aggregation class for reporting
    arrival: str = "poisson"           # poisson | bursty | diurnal
    cv2: float = 4.0                   # bursty: squared coeff. of variation
    period_ns: float = 1_000_000.0     # diurnal: rate-envelope period
    amplitude: float = 0.5             # diurnal: envelope swing, [0, 1)
    phase: float = 0.0                 # diurnal: envelope phase offset
    sizes: SizeDist = field(default_factory=SizeDist)
    opcode: Opcode = Opcode.MEMMOVE
    target: str = "dsa0"               # device name, or "cpu"
    wq_id: int = 0
    qos_priority: Optional[int] = None  # informational; WQ config is binding
    max_retries: int = 8               # failed ENQCMDs before shedding
    backoff_base_ns: float = 200.0     # exponential backoff base...
    backoff_cap_ns: float = 10_000.0   # ...and its cap
    slo: Optional[Slo] = None

    def validate(self) -> None:
        if not self.name or any(sep in self.name for sep in (".", ",", "=")):
            raise ValueError(
                f"tenant name {self.name!r} must be non-empty and free of '.', ',', '='"
                " (it becomes a metric-name component)"
            )
        if self.rate <= 0:
            raise ValueError(f"tenant {self.name}: rate must be positive, got {self.rate}")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(
                f"tenant {self.name}: unknown arrival kind {self.arrival!r}; "
                f"choose from {ARRIVAL_KINDS}"
            )
        if self.max_retries < 0:
            raise ValueError(f"tenant {self.name}: max_retries must be >= 0")
        if self.backoff_base_ns < 0 or self.backoff_cap_ns < self.backoff_base_ns:
            raise ValueError(
                f"tenant {self.name}: need 0 <= backoff_base_ns <= backoff_cap_ns"
            )
        self.sizes.validate()
        if self.slo is not None:
            self.slo.validate()

    @property
    def targets_cpu(self) -> bool:
        return self.target == TARGET_CPU

    def arrivals(self, stream: int, override: Optional[str] = None) -> ArrivalProcess:
        """Build this tenant's arrival process on derived stream ``stream``.

        ``override`` (the ``--traffic`` flag) replaces the declared kind
        while keeping the tenant's rate and shape parameters.
        """
        kind = self.arrival if override in (None, "default") else override
        if kind == "poisson":
            return PoissonProcess(self.rate, stream=stream)
        if kind == "bursty":
            return BurstyProcess(self.rate, cv2=max(1.0, self.cv2), stream=stream)
        return DiurnalProcess(
            self.rate,
            period_ns=self.period_ns,
            amplitude=self.amplitude,
            phase=self.phase,
            stream=stream,
        )

    def size_sampler(self, index: int) -> _SizeSampler:
        """Size sampler on the tenant's disjoint size stream."""
        rng = derive(make_rng(None), SIZE_STREAM_BASE + index)
        return self.sizes.sampler(rng)


@dataclass(frozen=True)
class TrafficProfile:
    """A named tenant mix plus run-wide serving knobs."""

    name: str
    tenants: Tuple[TenantSpec, ...]
    #: SLO accounting window (ns): violations are counted per window.
    window_ns: float = 100_000.0
    #: CPU completion path: worker cores and bounded backlog.
    cpu_cores: int = 2
    cpu_queue_limit: int = 256

    def validate(self) -> None:
        if not self.tenants:
            raise ValueError(f"profile {self.name}: needs at least one tenant")
        if self.window_ns <= 0:
            raise ValueError(f"profile {self.name}: window_ns must be positive")
        if self.cpu_cores < 1 or self.cpu_queue_limit < 1:
            raise ValueError(f"profile {self.name}: cpu pool shape must be >= 1")
        seen = set()
        for tenant in self.tenants:
            tenant.validate()
            if tenant.name in seen:
                raise ValueError(f"profile {self.name}: duplicate tenant {tenant.name}")
            seen.add(tenant.name)

    @property
    def total_rate(self) -> float:
        return sum(t.rate for t in self.tenants)

    def with_arrival(self, mode: str) -> "TrafficProfile":
        """A copy with every tenant's arrival kind forced to ``mode``."""
        if mode in (None, "default"):
            return self
        return replace(
            self, tenants=tuple(replace(t, arrival=mode) for t in self.tenants)
        )


def make_tenants(
    prefix: str,
    n: int,
    total_rate: float,
    **common,
) -> Tuple[TenantSpec, ...]:
    """``n`` equal-rate tenants named ``{prefix}{i:03d}``.

    ``total_rate`` is split evenly so a profile's aggregate load is
    independent of its fan-in — the knob the retry-storm experiment
    sweeps.  Remaining keyword arguments pass through to
    :class:`TenantSpec`.
    """
    if n < 1:
        raise ValueError(f"need at least one tenant, got {n}")
    rate = total_rate / n
    return tuple(TenantSpec(name=f"{prefix}{i:03d}", rate=rate, **common) for i in range(n))


def dsa_capacity(
    size: int,
    timing: Optional[DsaTimingParams] = None,
    engines: int = 4,
) -> float:
    """Planning estimate of one device's service rate (requests/ns).

    The binding constraint is the fabric for KB-scale transfers
    (``fabric_bandwidth`` is in GB/s == bytes/ns) and the per-descriptor
    engine-serial work (dispatch + PE setup) for tiny ones.  This is a
    load-planning estimate for choosing offered rates, not a model
    output — experiments measure the real thing.
    """
    timing = timing or DsaTimingParams()
    serial_ns = timing.dispatch_ns + timing.pe_setup_ns
    engine_bound = engines / serial_ns
    fabric_bound = timing.fabric_bandwidth / size
    return min(engine_bound, fabric_bound)


def cpu_capacity(size: int, opcode: Opcode = Opcode.MEMMOVE, cores: int = 2, kernels=None) -> float:
    """Planning estimate of the CPU pool's service rate (requests/ns)."""
    if kernels is None:
        from repro.cpu.swlib import SoftwareKernels

        kernels = SoftwareKernels()
    return cores / kernels.time(opcode, size)
