"""Exact metrics merge: export/absorb_state, --jobs 2 regression.

The old parallel path flattened worker histograms to per-leaf counters
(:meth:`MetricsRegistry.absorb_flat`), so a merged ``p99`` was just the
last worker's final value and the parent registry lost the distribution
entirely.  These tests pin the fixed behavior: worker registries export
invertible state, histograms merge bucket for bucket, and a
``--jobs 2`` run leaves the parent registry with *live* histograms
whose percentiles match a serial run.
"""

import multiprocessing
import sys
import types

import pytest

from repro.exec import ParallelRunner
from repro.experiments import registry as exp_registry
from repro.obs import HistogramMetric, MetricsRegistry, install_metrics, uninstall_metrics


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    uninstall_metrics()


class TestStateMerge:
    def _registry_with(self, samples):
        registry = MetricsRegistry()
        registry.counter("ops").add(len(samples))
        gauge = registry.gauge("depth")
        gauge.update(0.0, 0.0)
        gauge.update(10.0, max(samples))
        hist = registry.histogram("lat")
        for value in samples:
            hist.add(value)
        return registry

    def test_streaming_states_merge_bucketwise(self):
        worker_a = self._registry_with([float(i) for i in range(1, 1000)])
        worker_b = self._registry_with([float(i) for i in range(1000, 2000)])
        parent = MetricsRegistry()
        parent.absorb_state(worker_a.export_state())
        parent.absorb_state(worker_b.export_state())
        merged = parent.histogram("lat")
        assert len(merged.samples) == 1999
        assert parent.counter("ops").value == 1999.0
        exact_p99 = sorted(range(1, 2000))[-20]  # nearest-rank by hand
        assert merged.percentile(99) == pytest.approx(exact_p99, rel=0.01)

    def test_gauge_merge_spans_and_maxima(self):
        worker_a = MetricsRegistry()
        worker_a.gauge("depth").update(0.0, 4.0)
        worker_a.gauge("depth").update(10.0, 0.0)  # mean 4 over 10
        worker_b = MetricsRegistry()
        worker_b.gauge("depth").update(0.0, 8.0)
        worker_b.gauge("depth").update(30.0, 0.0)  # mean 8 over 30
        parent = MetricsRegistry()
        parent.absorb_state(worker_a.export_state())
        parent.absorb_state(worker_b.export_state())
        gauge = parent.gauge("depth")
        assert gauge.maximum == 8.0
        assert gauge.mean() == pytest.approx((4.0 * 10 + 8.0 * 30) / 40.0)

    def test_state_is_picklable(self):
        import pickle

        state = self._registry_with([1.0, 2.0]).export_state()
        assert pickle.loads(pickle.dumps(state))["lat"][0] == "histogram"

    def test_absorb_flat_remains_the_lossy_fallback(self):
        registry = MetricsRegistry()
        registry.absorb_flat({"lat.p99": 7.0})
        assert registry.snapshot() == {"lat.p99": 7.0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().absorb_state({"x": ("thermometer", 1.0)})


def _probe_module(name, offset):
    """An importable-after-fork experiment that fills registry metrics."""
    module = types.ModuleType(name)

    def run(quick=False):
        from repro.experiments.base import ExperimentResult
        from repro.obs import installed_metrics

        registry = installed_metrics()
        hist = registry.histogram("probe.lat")
        for i in range(200):
            hist.add(float((i * 7919) % 997) + offset)
        registry.counter("probe.ops").add(200)
        gauge = registry.gauge("probe.depth")
        gauge.update(0.0, 1.0)
        gauge.update(100.0, 0.0)
        return ExperimentResult(exp_id=name, title="probe", description="")

    module.run = run
    return module


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="dynamic probe experiments reach workers via fork inheritance",
)
class TestJobs2Regression:
    def test_jobs2_percentiles_match_serial(self, monkeypatch):
        """Satellite regression: --jobs 2 and serial agree on percentiles."""
        for probe, offset in (("probe_a", 0.0), ("probe_b", 1000.0)):
            monkeypatch.setitem(sys.modules, f"repro_test_{probe}", _probe_module(probe, offset))
            monkeypatch.setitem(exp_registry._EXPERIMENTS, probe, f"repro_test_{probe}")

        serial_registry = MetricsRegistry()
        install_metrics(serial_registry)
        serial = ParallelRunner(jobs=1, quick=True).run(["probe_a", "probe_b"])
        serial_snapshot = serial_registry.snapshot()
        serial_p99 = serial_registry.histogram("probe.lat").percentile(99)
        uninstall_metrics()

        parallel_registry = MetricsRegistry()
        install_metrics(parallel_registry)
        parallel = ParallelRunner(jobs=2, quick=True).run(["probe_a", "probe_b"])
        uninstall_metrics()

        assert all(o.ok for o in serial + parallel), [o.error for o in serial + parallel]
        # The parent registry holds the last experiment's metrics as
        # LIVE objects: a real histogram with the serial p99, not a
        # flattened probe.lat.p99 counter.
        merged = parallel_registry.histogram("probe.lat")
        assert isinstance(merged, HistogramMetric)
        assert merged.percentile(99) == serial_p99
        assert parallel_registry.snapshot() == serial_snapshot
        for ser, par in zip(serial, parallel):
            assert ser.result.metrics == par.result.metrics
