"""SloAccountant: window roll, starvation floor, cohorts, finalize."""

import pytest

from repro.traffic import Slo, SloAccountant, TenantSpec
from repro.traffic.slo import STARVATION_MIN_OFFERED


def spec(name="t000", **overrides):
    base = dict(name=name, rate=1e-4)
    base.update(overrides)
    return TenantSpec(**base)


def make(window_ns=100.0, **kwargs):
    return SloAccountant(window_ns=window_ns, **kwargs)


def test_register_rejects_duplicates():
    acct = make()
    acct.register(spec())
    with pytest.raises(ValueError, match="already registered"):
        acct.register(spec())
    assert len(acct) == 1 and "t000" in acct


def test_rejects_nonpositive_window():
    with pytest.raises(ValueError, match="window_ns"):
        SloAccountant(window_ns=0.0)


def test_totals_conserve_and_count_retries():
    acct = make()
    acct.register(spec())
    acct.offered("t000", 10.0)
    acct.offered("t000", 20.0)
    acct.completed("t000", 50.0, latency_ns=40.0, nbytes=4096, retries=2)
    acct.dropped("t000", 60.0, retries=8)
    totals = acct.totals()
    assert totals["offered"] == 2
    assert totals["completed"] == 1
    assert totals["dropped"] == 1
    assert totals["retries"] == 10
    assert totals["bytes_completed"] == 4096


def test_idle_windows_are_skipped_not_evaluated():
    # A long idle stretch between two active windows must add exactly
    # one evaluated window (the active one), not one per idle window.
    acct = make(window_ns=100.0)
    acct.register(spec(slo=Slo(p99_ns=1e9)))
    acct.offered("t000", 10.0)
    acct.completed("t000", 20.0, latency_ns=10.0, nbytes=1)
    # Jump 1e6 windows forward; the roll is O(1) and evaluates only the
    # single active window left behind.
    acct.offered("t000", 1e8 + 10.0)
    account = acct.account("t000")
    assert account.windows == 1
    assert account.window_start == pytest.approx(1e8)


def test_starvation_needs_min_offered():
    # Below the floor: an offered-but-not-completed window is pipelining,
    # not starvation.
    acct = make(window_ns=100.0)
    acct.register(spec(slo=Slo(p99_ns=1e9)))
    for i in range(STARVATION_MIN_OFFERED - 1):
        acct.offered("t000", 10.0 + i)
    acct.offered("t000", 150.0)  # rolls the window
    assert acct.account("t000").violation_windows == 0

    # At the floor: the window counts as starved.
    acct2 = make(window_ns=100.0)
    acct2.register(spec(slo=Slo(p99_ns=1e9)))
    for i in range(STARVATION_MIN_OFFERED):
        acct2.offered("t000", 10.0 + i)
    acct2.offered("t000", 150.0)
    assert acct2.account("t000").violation_windows == 1


def test_percentile_breach_violates_window():
    acct = make(window_ns=100.0)
    acct.register(spec(slo=Slo(p99_ns=50.0)))
    for i in range(10):
        acct.offered("t000", 10.0 + i)
        acct.completed("t000", 10.0 + i, latency_ns=200.0, nbytes=1)
    acct.completed("t000", 150.0, latency_ns=1.0, nbytes=1)  # rolls
    assert acct.account("t000").violation_windows == 1


def test_no_slo_never_violates():
    acct = make(window_ns=100.0)
    acct.register(spec(slo=None))
    for i in range(20):
        acct.offered("t000", 10.0 + i)
    acct.offered("t000", 250.0)
    account = acct.account("t000")
    assert account.windows == 1 and account.violation_windows == 0


def test_window_histogram_only_for_tenants_with_an_slo():
    acct = make(window_ns=100.0)
    acct.register(spec("free", slo=None))
    acct.register(spec("bound", slo=Slo(p99_ns=50.0)))
    for i in range(10):
        for name in ("free", "bound"):
            acct.offered(name, 10.0 + i)
            acct.completed(name, 10.0 + i, latency_ns=200.0, nbytes=1)
    for name in ("free", "bound"):
        acct.completed(name, 150.0, latency_ns=1.0, nbytes=1)  # rolls
    free, bound = acct.account("free"), acct.account("bound")
    assert free.window_hist is None
    assert (free.windows, free.violation_windows) == (1, 0)
    assert (bound.windows, bound.violation_windows) == (1, 1)
    assert len(bound.window_hist) == 1  # the fresh window's one sample
    assert free.percentile(99.0) == bound.percentile(99.0)


def test_cohort_merge_is_exact():
    acct = make()
    acct.register(spec("a", cohort="hi"))
    acct.register(spec("b", cohort="hi"))
    acct.register(spec("c", cohort="lo"))
    for latency in (10.0, 20.0, 30.0):
        acct.completed("a", 1.0, latency_ns=latency, nbytes=1)
    acct.completed("b", 1.0, latency_ns=40.0, nbytes=1)
    acct.completed("c", 1.0, latency_ns=99.0, nbytes=1)
    assert acct.cohorts() == ["hi", "lo"]
    assert len(acct.cohort_hist("hi")) == 4
    stats = acct.cohort_stats("hi")
    assert stats["completed"] == 4
    # The lo cohort's sample must not leak into hi's percentile.
    assert acct.cohort_percentile("hi", 100.0) < 99.0 * 1.01


def test_shadow_mode_keeps_raw_samples():
    acct = make(shadow_exact=True)
    acct.register(spec())
    acct.completed("t000", 1.0, latency_ns=5.0, nbytes=1)
    assert acct.account("t000").shadow_samples == [5.0]
    # Off by default: no per-sample accumulation.
    plain = make()
    plain.register(spec())
    plain.completed("t000", 1.0, latency_ns=5.0, nbytes=1)
    assert plain.account("t000").shadow_samples is None


def test_finalize_twice_raises():
    from repro.obs import MetricsRegistry

    acct = make()
    acct.register(spec())
    acct.offered("t000", 10.0)
    acct.completed("t000", 20.0, latency_ns=10.0, nbytes=64)
    registry = MetricsRegistry()
    totals = acct.finalize(1000.0, registry)
    assert totals["offered"] == 1
    snap = registry.snapshot()
    assert snap["traffic.offered"] == 1
    assert snap["traffic.completed"] == 1
    assert snap["traffic.bytes_completed"] == 64
    assert snap["traffic.cohort.default.offered"] == 1
    with pytest.raises(RuntimeError, match="finalize called twice"):
        acct.finalize(2000.0, registry)


def test_empty_accountant_is_falsy_but_usable():
    # Regression: LoadGenerator must not test accountants for truth —
    # a freshly built (empty) one has len() == 0.
    acct = make(shadow_exact=True)
    assert not acct
    assert acct.shadow_exact
