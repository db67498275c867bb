"""Per-tenant SLO accounting at constant memory.

The serving mode's deliverable is SLO-grade numbers — per-tenant
p50/p99/p999 latency, goodput, retry counts, drops, and SLO-violation
windows — at a scale (~2M requests, thousands of tenants) where keeping
raw samples is exactly the unbounded accumulation the observability
stack was built to avoid.  So every latency lands in a per-tenant
:class:`~repro.obs.streaming.StreamingHistogram` (≤1% relative
percentile error, O(buckets) memory) plus, for a tenant with an SLO,
a per-window histogram that is *replaced* each window — total
footprint O(tenants × buckets), independent of request count.

Window semantics: time is cut into fixed ``window_ns`` windows per
tenant.  A window is **evaluated** only if the tenant offered or
completed anything in it (idle windows don't count against an idle
tenant).  An evaluated window **violates** the tenant's declared
:class:`~repro.traffic.profile.Slo` when at least
:data:`STARVATION_MIN_OFFERED` requests were offered and none completed
(starvation), or a declared percentile target was exceeded.
Violated windows are streamed through the installed
:class:`~repro.obs.ResultSink` as ``traffic_window`` lines the moment
they close; per-tenant summaries go out as ``traffic_tenant`` lines at
:meth:`SloAccountant.finalize`, which also publishes the aggregate
``traffic.*`` metric family (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.sink import installed_sink
from repro.obs.streaming import StreamingHistogram
from repro.traffic.profile import TenantSpec

__all__ = ["SloAccountant", "TenantAccount", "STARVATION_MIN_OFFERED"]

#: Starvation rule floor: a window counts as starved only when at least
#: this many requests were offered and *none* completed.  At low
#: per-tenant rates a window routinely holds one arrival whose
#: completion lands in the next window — that is pipelining, not
#: starvation, and must not read as an SLO violation.
STARVATION_MIN_OFFERED = 4


class TenantAccount:
    """Running totals and histograms for one tenant."""

    __slots__ = (
        "spec",
        "hist",
        "offered",
        "completed",
        "dropped",
        "retries",
        "bytes_completed",
        "window_start",
        "window_hist",
        "window_offered",
        "window_completed",
        "windows",
        "violation_windows",
        "shadow_samples",
    )

    def __init__(self, spec: TenantSpec, shadow: bool):
        self.spec = spec
        self.hist = StreamingHistogram()
        self.offered = 0
        self.completed = 0
        self.dropped = 0
        self.retries = 0
        self.bytes_completed = 0
        self.window_start = 0.0
        #: The current window's latencies; kept only for a tenant with
        #: an SLO, the one reader (:meth:`SloAccountant._violates`).
        self.window_hist: Optional[StreamingHistogram] = (
            None if spec.slo is None else StreamingHistogram()
        )
        self.window_offered = 0
        self.window_completed = 0
        self.windows = 0
        self.violation_windows = 0
        #: Exact raw latencies, kept only in ``shadow_exact`` mode so a
        #: bench/test can bound the streaming percentile error.
        self.shadow_samples: Optional[List[float]] = [] if shadow else None

    def percentile(self, pct: float) -> float:
        return self.hist.percentile(pct)

    @property
    def goodput_fraction(self) -> float:
        """Completed share of offered requests (1.0 when nothing offered)."""
        return self.completed / self.offered if self.offered else 1.0


class SloAccountant:
    """Streams per-tenant latency/SLO accounting through constant memory."""

    def __init__(
        self,
        window_ns: float = 100_000.0,
        shadow_exact: bool = False,
        sink_tag: str = "traffic",
    ):
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.window_ns = window_ns
        self.shadow_exact = shadow_exact
        self.sink_tag = sink_tag
        self._accounts: Dict[str, TenantAccount] = {}
        self._finalized = False

    # -- registration ----------------------------------------------------
    def register(self, spec: TenantSpec) -> TenantAccount:
        if spec.name in self._accounts:
            raise ValueError(f"tenant {spec.name!r} already registered")
        account = TenantAccount(spec, self.shadow_exact)
        self._accounts[spec.name] = account
        return account

    def account(self, name: str) -> TenantAccount:
        return self._accounts[name]

    def __len__(self) -> int:
        return len(self._accounts)

    def __contains__(self, name: str) -> bool:
        return name in self._accounts

    # -- recording -------------------------------------------------------
    def offered(self, name: str, now: float) -> None:
        account = self._accounts[name]
        # _roll's own test, made here: most requests land inside the
        # open window, and this runs once per request.
        if now >= account.window_start + self.window_ns:
            self._roll(account, now)
        account.offered += 1
        account.window_offered += 1

    def dropped(self, name: str, now: float, retries: int = 0) -> None:
        """A shed request: retry budget exhausted or the backlog full."""
        account = self._accounts[name]
        self._roll(account, now)
        account.dropped += 1
        account.retries += retries

    def completed(
        self, name: str, now: float, latency_ns: float, nbytes: int, retries: int = 0
    ) -> None:
        account = self._accounts[name]
        if now >= account.window_start + self.window_ns:
            self._roll(account, now)
        account.completed += 1
        account.retries += retries
        account.bytes_completed += nbytes
        account.window_completed += 1
        account.hist.add(latency_ns)
        if account.window_hist is not None:
            account.window_hist.add(latency_ns)
        if account.shadow_samples is not None:
            account.shadow_samples.append(latency_ns)

    # -- windows ---------------------------------------------------------
    def _roll(self, account: TenantAccount, now: float) -> None:
        """Close every window that ended before ``now``.

        Only windows with activity are evaluated; runs of idle windows
        are skipped in O(1) by jumping the window start forward.
        """
        window = self.window_ns
        if now < account.window_start + window:
            return
        if account.window_offered or account.window_completed:
            self._evaluate(account)
        # Jump directly to the window containing ``now`` — constant
        # work even after arbitrarily long idle stretches.
        elapsed = now - account.window_start
        account.window_start += int(elapsed / window) * window

    def _evaluate(self, account: TenantAccount) -> None:
        account.windows += 1
        violated = self._violates(account)
        if violated:
            account.violation_windows += 1
            sink = installed_sink()
            if sink is not None:
                spec = account.spec
                window_hist = account.window_hist
                p99 = window_hist.percentile(99.0) if len(window_hist) else None
                sink.write(
                    "traffic_window",
                    exp=self.sink_tag,
                    tenant=spec.name,
                    cohort=spec.cohort,
                    start_ns=round(account.window_start, 1),
                    offered=account.window_offered,
                    completed=account.window_completed,
                    p99_ns=None if p99 is None else round(p99, 1),
                    violated=True,
                )
        if account.window_hist is not None:
            account.window_hist = StreamingHistogram()
        account.window_offered = 0
        account.window_completed = 0

    def _violates(self, account: TenantAccount) -> bool:
        slo = account.spec.slo
        if slo is None:
            return False
        if (
            account.window_offered >= STARVATION_MIN_OFFERED
            and not account.window_completed
        ):
            return True  # starved outright
        hist = account.window_hist
        if not len(hist):
            return False
        if slo.p99_ns is not None and hist.percentile(99.0) > slo.p99_ns:
            return True
        if slo.p999_ns is not None and hist.percentile(99.9) > slo.p999_ns:
            return True
        return False

    # -- aggregation -----------------------------------------------------
    def cohorts(self) -> List[str]:
        seen: List[str] = []
        for account in self._accounts.values():
            if account.spec.cohort not in seen:
                seen.append(account.spec.cohort)
        return seen

    def cohort_hist(self, cohort: str) -> StreamingHistogram:
        """Exact bucket-wise merge of the cohort's tenant histograms."""
        merged = StreamingHistogram()
        for account in self._accounts.values():
            if account.spec.cohort == cohort:
                merged.merge(account.hist)
        return merged

    def cohort_percentile(self, cohort: str, pct: float) -> float:
        return self.cohort_hist(cohort).percentile(pct)

    def cohort_stats(self, cohort: str) -> Dict[str, float]:
        stats = {
            "offered": 0,
            "completed": 0,
            "dropped": 0,
            "retries": 0,
            "bytes_completed": 0,
            "windows": 0,
            "violation_windows": 0,
        }
        for account in self._accounts.values():
            if account.spec.cohort != cohort:
                continue
            stats["offered"] += account.offered
            stats["completed"] += account.completed
            stats["dropped"] += account.dropped
            stats["retries"] += account.retries
            stats["bytes_completed"] += account.bytes_completed
            stats["windows"] += account.windows
            stats["violation_windows"] += account.violation_windows
        return stats

    def totals(self) -> Dict[str, int]:
        totals = {
            "offered": 0,
            "completed": 0,
            "dropped": 0,
            "retries": 0,
            "bytes_completed": 0,
            "windows": 0,
            "violation_windows": 0,
        }
        for cohort in self.cohorts():
            for key, value in self.cohort_stats(cohort).items():
                totals[key] += value
        return totals

    # -- finalize --------------------------------------------------------
    def finalize(self, now: float, registry=None) -> Dict[str, int]:
        """Close open windows, publish ``traffic.*`` metrics, emit summaries.

        Idempotent-ish by refusal: a second call raises, because window
        evaluation is destructive (per-window histograms reset).
        Returns the aggregate totals.
        """
        if self._finalized:
            raise RuntimeError("SloAccountant.finalize called twice")
        self._finalized = True
        sink = installed_sink()
        for account in self._accounts.values():
            if account.window_offered or account.window_completed:
                self._evaluate(account)
            if sink is not None:
                spec = account.spec
                hist = account.hist
                sink.write(
                    "traffic_tenant",
                    exp=self.sink_tag,
                    tenant=spec.name,
                    cohort=spec.cohort,
                    offered=account.offered,
                    completed=account.completed,
                    dropped=account.dropped,
                    retries=account.retries,
                    bytes=account.bytes_completed,
                    p50_ns=round(hist.percentile(50.0), 1) if len(hist) else None,
                    p99_ns=round(hist.percentile(99.0), 1) if len(hist) else None,
                    p999_ns=round(hist.percentile(99.9), 1) if len(hist) else None,
                    windows=account.windows,
                    violation_windows=account.violation_windows,
                )
        totals = self.totals()
        if registry is not None:
            registry.counter("traffic.offered").add(totals["offered"])
            registry.counter("traffic.completed").add(totals["completed"])
            registry.counter("traffic.dropped").add(totals["dropped"])
            registry.counter("traffic.enqcmd_retries").add(totals["retries"])
            registry.counter("traffic.bytes_completed").add(totals["bytes_completed"])
            registry.counter("traffic.windows").add(totals["windows"])
            registry.counter("traffic.violation_windows").add(totals["violation_windows"])
            for cohort in self.cohorts():
                stats = self.cohort_stats(cohort)
                prefix = f"traffic.cohort.{cohort}"
                registry.counter(f"{prefix}.offered").add(stats["offered"])
                registry.counter(f"{prefix}.completed").add(stats["completed"])
                registry.counter(f"{prefix}.dropped").add(stats["dropped"])
                registry.counter(f"{prefix}.violation_windows").add(
                    stats["violation_windows"]
                )
        return totals
