"""TenantSpec / SizeDist / TrafficProfile validation and helpers."""

import pytest

from repro.traffic import (
    SizeDist,
    Slo,
    TenantSpec,
    TrafficProfile,
    cpu_capacity,
    dsa_capacity,
    make_tenants,
)

KB = 1024


def spec(**overrides):
    base = dict(name="t000", rate=1e-4)
    base.update(overrides)
    return TenantSpec(**base)


# -- TenantSpec -------------------------------------------------------------


@pytest.mark.parametrize("bad", ["", "a.b", "a,b", "a=b"])
def test_tenant_name_rejects_metric_separators(bad):
    # Names become metric components (dsa0.wq0.source.<name>.*): the
    # registry separators must be impossible inside them.
    with pytest.raises(ValueError, match="metric-name component"):
        spec(name=bad).validate()


def test_tenant_rejects_nonpositive_rate():
    with pytest.raises(ValueError, match="rate"):
        spec(rate=0.0).validate()


def test_tenant_rejects_unknown_arrival():
    with pytest.raises(ValueError, match="arrival"):
        spec(arrival="fractal").validate()


def test_tenant_rejects_bad_backoff():
    with pytest.raises(ValueError, match="backoff"):
        spec(backoff_base_ns=500.0, backoff_cap_ns=100.0).validate()
    with pytest.raises(ValueError, match="max_retries"):
        spec(max_retries=-1).validate()


def test_arrival_override_replaces_declared_kind():
    t = spec(arrival="poisson", cv2=4.0)
    assert type(t.arrivals(0)).__name__ == "PoissonProcess"
    assert type(t.arrivals(0, "bursty")).__name__ == "BurstyProcess"
    # "default"/None keep the declared kind.
    assert type(t.arrivals(0, "default")).__name__ == "PoissonProcess"
    assert type(t.arrivals(0, None)).__name__ == "PoissonProcess"


# -- Slo --------------------------------------------------------------------


def test_slo_rejects_nonpositive_targets():
    with pytest.raises(ValueError):
        Slo(p99_ns=0.0).validate()
    with pytest.raises(ValueError):
        Slo(p999_ns=-1.0).validate()
    Slo(p99_ns=1000.0, p999_ns=5000.0).validate()  # fine


# -- SizeDist ---------------------------------------------------------------


def test_size_dist_validation():
    with pytest.raises(ValueError, match="kind"):
        SizeDist(kind="zipf").validate()
    with pytest.raises(ValueError, match="choices"):
        SizeDist(kind="choice").validate()
    with pytest.raises(ValueError, match="1:1"):
        SizeDist(kind="choice", choices=(1024, 4096), weights=(1.0,)).validate()
    with pytest.raises(ValueError, match="sigma"):
        SizeDist(kind="lognormal", size=KB, sigma=0.0).validate()


def test_size_dist_resolved_max():
    assert SizeDist(kind="fixed", size=4 * KB).resolved_max == 4 * KB
    assert SizeDist(kind="choice", choices=(KB, 64 * KB), weights=(1, 1)).resolved_max == 64 * KB
    explicit = SizeDist(kind="lognormal", size=8 * KB, sigma=0.7, max_size=32 * KB)
    assert explicit.resolved_max == 32 * KB
    # The implicit lognormal ceiling covers every draw.
    dist = SizeDist(kind="lognormal", size=8 * KB, sigma=0.7)
    sampler = spec(sizes=dist).size_sampler(0)
    bound = dist.resolved_max
    assert all(1 <= sampler.next() <= bound for _ in range(2000))


def test_sampler_hands_out_each_refill_as_python_ints():
    for dist in (
        SizeDist(kind="lognormal", size=8 * KB, sigma=0.7),
        SizeDist(kind="choice", choices=(KB, 64 * KB), weights=(3, 1)),
    ):
        sampler, twin = spec(sizes=dist).size_sampler(0), spec(sizes=dist).size_sampler(0)
        expected = [int(size) for size in twin._refill()]
        got = [sampler.next() for _ in range(len(expected))]
        assert got == expected
        assert all(type(size) is int for size in got)


def test_fixed_sampler_consumes_no_randomness():
    # Two tenants sharing a stream index but fixed sizes draw nothing:
    # samples are the constant, with no RNG interaction.
    sampler = spec(sizes=SizeDist(kind="fixed", size=2 * KB)).size_sampler(3)
    assert [sampler.next() for _ in range(5)] == [2 * KB] * 5


# -- TrafficProfile ---------------------------------------------------------


def test_profile_rejects_duplicates_and_empty():
    with pytest.raises(ValueError, match="at least one"):
        TrafficProfile(name="p", tenants=()).validate()
    t = spec()
    with pytest.raises(ValueError, match="duplicate"):
        TrafficProfile(name="p", tenants=(t, t)).validate()


def test_make_tenants_splits_rate_evenly():
    tenants = make_tenants("t", 8, 8e-4)
    assert [t.name for t in tenants[:2]] == ["t000", "t001"]
    assert len({t.name for t in tenants}) == 8
    profile = TrafficProfile(name="p", tenants=tenants)
    assert profile.total_rate == pytest.approx(8e-4)


def test_with_arrival_forces_every_tenant():
    profile = TrafficProfile(name="p", tenants=make_tenants("t", 4, 1e-4))
    bursty = profile.with_arrival("bursty")
    assert all(t.arrival == "bursty" for t in bursty.tenants)
    assert profile.with_arrival("default") is profile


# -- capacity planning ------------------------------------------------------


def test_capacity_crossover_matches_paper_shape():
    # Large transfers: the DSA's fabric bandwidth beats the CPU's
    # software-kernel rate (the paper's offload guideline).  With a
    # single engine, small transfers are engine-bound (per-descriptor
    # dispatch + PE setup), not fabric-bound.
    assert dsa_capacity(64 * KB) > cpu_capacity(64 * KB)
    assert dsa_capacity(1 * KB, engines=1) < dsa_capacity(1 * KB, engines=4)
    # Deep in the fabric-bound regime, engines no longer help.
    assert dsa_capacity(256 * KB, engines=1) == dsa_capacity(256 * KB, engines=4)
    # CPU capacity scales linearly with cores.
    assert cpu_capacity(16 * KB, cores=4) == pytest.approx(
        2 * cpu_capacity(16 * KB, cores=2)
    )


def test_dsa_capacity_fabric_bound_scales_inversely():
    # Deep in the fabric-bound regime, halving the size doubles capacity.
    assert dsa_capacity(128 * KB) == pytest.approx(2 * dsa_capacity(256 * KB))
