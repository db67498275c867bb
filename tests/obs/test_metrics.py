"""MetricsRegistry: counters, gauges, histograms, snapshot round-trip."""

import pytest

from repro.obs import MetricsRegistry, install_metrics, uninstall_metrics
from repro.sim.engine import Environment


class TestRegistry:
    def test_counter_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        a = registry.counter("dsa0.wq0.enqueued")
        b = registry.counter("dsa0.wq0.enqueued")
        assert a is b
        a.add()
        a.add(2.0)
        assert registry.snapshot()["dsa0.wq0.enqueued"] == 3.0

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_gauge_time_weighted_mean(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("dsa0.wq1.occupancy")
        gauge.update(0.0, 0.0)
        gauge.update(10.0, 4.0)  # level 0 held for [0, 10)
        gauge.update(30.0, 0.0)  # level 4 held for [10, 30)
        snap = registry.snapshot()
        assert snap["dsa0.wq1.occupancy.max"] == 4.0
        assert snap["dsa0.wq1.occupancy.mean"] == pytest.approx((4.0 * 20.0) / 30.0)
        assert snap["dsa0.wq1.occupancy.level"] == 0.0

    def test_gauge_survives_time_going_backwards(self):
        # A shared registry sees updates from successive simulations
        # whose clocks restart at zero; the gauge restarts its epoch.
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.update(100.0, 8.0)
        gauge.update(5.0, 2.0)  # new simulation, earlier clock
        assert gauge.maximum == 8.0
        assert gauge.level == 2.0

    def test_histogram_snapshot_leaves(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat")
        for value in [5.0, 1.0, 9.0, 3.0]:
            histogram.add(value)
        snap = registry.snapshot()
        # Count, mean and max are exact; interior percentiles carry the
        # streaming histogram's 1% relative-error bound.
        assert snap["lat.count"] == 4.0
        assert snap["lat.mean"] == 4.5
        assert snap["lat.p50"] == pytest.approx(3.0, rel=0.01)
        assert snap["lat.max"] == 9.0

    def test_snapshot_round_trip_is_flat_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b.count").add(1)
        registry.gauge("a.level_gauge").update(0.0, 2.0)
        snap = registry.snapshot()
        assert all(isinstance(key, str) for key in snap)
        assert all(isinstance(value, float) for value in snap.values())
        assert list(snap) == sorted(snap)

    def test_clear_empties_registry(self):
        registry = MetricsRegistry()
        registry.counter("x").add()
        registry.clear()
        assert registry.snapshot() == {}


class TestEnvironmentWiring:
    def test_every_environment_gets_a_private_registry(self):
        env_a, env_b = Environment(), Environment()
        assert env_a.metrics is not env_b.metrics

    def test_installed_registry_is_shared_even_when_empty(self):
        registry = MetricsRegistry()  # empty ⇒ falsy; must still be adopted
        install_metrics(registry)
        try:
            assert Environment().metrics is registry
        finally:
            uninstall_metrics()

    def test_components_publish_live_metrics(self):
        from repro.platform import spr_platform

        platform = spr_platform()
        snap = platform.env.metrics.snapshot()
        assert "dsa0.wq0.enqueued" in snap
        assert "dsa0.atc.misses" in snap
        assert "mem.iommu.translations" in snap
