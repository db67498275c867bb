"""Unit tests for FaultPlan validation and FaultInjector decisions."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    active_injector,
    injection,
    install_injector,
    uninstall_injector,
)
from repro.faults import inject
from repro.sim.rng import install_seed, uninstall_seed

PAGE = 4096


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    uninstall_injector()
    uninstall_seed()


class TestFaultPlan:
    def test_zero_plan_injects_nothing(self):
        assert not FaultPlan().injects_anything

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"page_fault_rate": 0.1},
            {"scripted_vas": (4096,)},
            {"atc_shootdown_every": 8},
            {"swq_reject_rate": 0.5},
            {"device_reset_at": (1000.0,)},
        ],
    )
    def test_any_knob_enables(self, kwargs):
        assert FaultPlan(**kwargs).injects_anything

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"page_fault_rate": 1.5},
            {"page_fault_rate": -0.1},
            {"major_fault_fraction": 2.0},
            {"minor_fault_ns": -1.0},
            {"atc_shootdown_every": -1},
            {"swq_reject_rate": 1.1},
            {"swq_burst_length": 0},
            {"device_reset_window_ns": 0.0},
            {"device_reset_at": (-5.0,)},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs).validate()

    def test_service_latencies(self):
        plan = FaultPlan(minor_fault_ns=10.0, major_fault_ns=20.0)
        assert plan.service_latency_ns(FaultKind.MINOR) == 10.0
        assert plan.service_latency_ns(FaultKind.MAJOR) == 20.0


class TestInjectorPageFaults:
    def test_rate_zero_never_faults(self):
        injector = FaultInjector(FaultPlan(seed=1))
        assert all(
            injector.page_fault(0, i * PAGE) is None for i in range(100)
        )

    def test_rate_one_always_faults(self):
        injector = FaultInjector(FaultPlan(seed=1, page_fault_rate=1.0))
        assert all(
            injector.page_fault(0, i * PAGE) is not None for i in range(50)
        )
        assert injector.injected_page_faults == 50

    def test_scripted_va_fires_once(self):
        injector = FaultInjector(FaultPlan(seed=1, scripted_vas=(PAGE + 100,)))
        # Any address in the scripted page triggers, exactly once.
        assert injector.page_fault(0, PAGE) is not None
        assert injector.page_fault(0, PAGE) is None

    def test_fault_once_per_page(self):
        plan = FaultPlan(seed=1, page_fault_rate=1.0, fault_once_per_page=True)
        injector = FaultInjector(plan)
        assert injector.page_fault(7, 0) is not None
        assert injector.page_fault(7, 0) is None
        # A different PASID's page 0 still faults.
        assert injector.page_fault(8, 0) is not None

    def test_major_fraction(self):
        plan = FaultPlan(seed=2, page_fault_rate=1.0, major_fault_fraction=1.0)
        injector = FaultInjector(plan)
        assert injector.page_fault(0, 0) is FaultKind.MAJOR
        plan = FaultPlan(seed=2, page_fault_rate=1.0, major_fault_fraction=0.0)
        injector = FaultInjector(plan)
        assert injector.page_fault(0, 0) is FaultKind.MINOR

    def test_same_seed_same_sequence(self):
        a = FaultInjector(FaultPlan(seed=9, page_fault_rate=0.3))
        b = FaultInjector(FaultPlan(seed=9, page_fault_rate=0.3))
        decisions_a = [a.page_fault(0, i * PAGE) for i in range(200)]
        decisions_b = [b.page_fault(0, i * PAGE) for i in range(200)]
        assert decisions_a == decisions_b
        assert any(d is not None for d in decisions_a)
        assert any(d is None for d in decisions_a)

    def test_seed_none_uses_installed_seed(self):
        install_seed(1234)
        a = FaultInjector(FaultPlan(page_fault_rate=0.3))
        decisions_a = [a.page_fault(0, i * PAGE) for i in range(100)]
        install_seed(1234)
        b = FaultInjector(FaultPlan(page_fault_rate=0.3))
        decisions_b = [b.page_fault(0, i * PAGE) for i in range(100)]
        assert decisions_a == decisions_b


class TestInjectorOtherSites:
    def test_shootdown_cadence(self):
        injector = FaultInjector(FaultPlan(seed=1, atc_shootdown_every=3))
        hits = [injector.shootdown_due() for _ in range(9)]
        assert hits == [False, False, True] * 3
        assert injector.injected_shootdowns == 3

    def test_swq_burst(self):
        injector = FaultInjector(
            FaultPlan(seed=1, swq_reject_rate=1.0, swq_burst_length=3)
        )
        # Every draw starts a burst of 3 consecutive rejections.
        assert [injector.swq_reject() for _ in range(3)] == [True, True, True]
        assert injector.injected_swq_rejects == 3

    def test_device_reset_window(self):
        plan = FaultPlan(seed=1, device_reset_at=(1000.0,), device_reset_window_ns=50.0)
        injector = FaultInjector(plan)
        assert not injector.device_reset(999.0)
        assert injector.device_reset(1000.0)
        assert injector.device_reset(1049.0)
        assert not injector.device_reset(1050.0)


class TestInstallPattern:
    def test_disabled_plan_reads_as_absent(self):
        install_injector(FaultPlan())
        assert active_injector() is None

    def test_install_and_uninstall(self):
        injector = install_injector(FaultPlan(page_fault_rate=0.5))
        assert active_injector() is injector
        uninstall_injector()
        assert active_injector() is None

    def test_install_rejects_other_types(self):
        with pytest.raises(TypeError):
            install_injector("not a plan")

    def test_injection_context_restores_previous(self):
        outer = install_injector(FaultPlan(page_fault_rate=0.5))
        with injection(FaultPlan(page_fault_rate=1.0)) as inner:
            assert active_injector() is inner
        assert active_injector() is outer

    def test_hot_path_attribute_tracks_every_install(self):
        """``inject.active``, which hot paths read instead of calling
        ``active_injector()``, follows install, uninstall and the exit
        of ``injection()``, also for a plan that injects nothing."""
        assert inject.active is None
        outer = install_injector(FaultPlan(page_fault_rate=0.5))
        assert inject.active is outer
        with injection(FaultPlan()):
            assert inject.active is None
        assert inject.active is outer
        with pytest.raises(RuntimeError):
            with injection(FaultPlan(atc_shootdown_every=3)) as inner:
                assert inject.active is inner
                raise RuntimeError("model error")
        assert inject.active is outer
        uninstall_injector()
        assert inject.active is None
