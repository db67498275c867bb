"""Self-metering: MemoryWatermark and the obs.overhead metric family."""

import tracemalloc

from repro.obs import (
    MemoryWatermark,
    MetricsRegistry,
    RingTracer,
    publish_overhead,
)


class TestMemoryWatermark:
    def test_peak_monotonic_and_positive(self):
        with MemoryWatermark() as watermark:
            blob = [list(range(1000)) for _ in range(100)]
            first = watermark.sample()
            del blob
            second = watermark.sample()
        assert first > 0
        assert second >= first  # a high-water mark never goes down

    def test_stop_only_stops_what_it_started(self):
        already = tracemalloc.is_tracing()
        try:
            tracemalloc.start()
            watermark = MemoryWatermark().start()
            watermark.stop()
            assert tracemalloc.is_tracing()  # outer tracing untouched
        finally:
            if not already:
                tracemalloc.stop()

    def test_stop_is_idempotent(self):
        watermark = MemoryWatermark().start()
        peak = watermark.stop()
        assert watermark.stop() == peak
        assert not tracemalloc.is_tracing()


class TestPublishOverhead:
    def test_tracer_and_histogram_accounting(self, tmp_path):
        tracer = RingTracer(capacity=10, spill_dir=str(tmp_path))
        for i in range(25):
            tracer.instant(float(i), "t", "cat")
        source = MetricsRegistry()
        for value in (1.0, 2.0, 4.0):
            source.histogram("lat.a").add(value)
        source.histogram("lat.b").add(1.0)

        overhead = publish_overhead(MetricsRegistry(), tracer=tracer, source_registry=source)
        snap = overhead.snapshot()
        assert snap["obs.overhead.trace.records"] == 25.0
        assert snap["obs.overhead.trace.spilled_records"] == 20.0
        assert snap["obs.overhead.trace.shards"] == 2.0
        assert snap["obs.overhead.trace.buffered"] == 5.0
        assert snap["obs.overhead.trace.spill_bytes"] > 0
        assert snap["obs.overhead.hist.metrics"] == 2.0
        assert snap["obs.overhead.hist.buckets"] == 4.0  # three distinct + one

    def test_watermark_leaf_published(self):
        with MemoryWatermark() as watermark:
            _ = [0] * 10000
            registry = publish_overhead(MetricsRegistry(), watermark=watermark)
        assert registry.snapshot()["obs.overhead.mem.peak_kb"] > 0
