"""Self-metering: the overhead of observation, itself observable.

Streaming observability only earns its keep if its own cost is visible:
the ``obs.overhead.*`` metric family reports how many records the
tracer holds vs spilled, how many buckets the streaming histograms
occupy, and — via :class:`MemoryWatermark` — the tracemalloc high-water
mark of the run.  ``python -m repro run … --metrics`` prints the family
as a final "Observability overhead" table; the constant-memory CI gate
(``scripts/check_constant_memory.py``) asserts on the watermark.

Metric names (see docs/OBSERVABILITY.md):

* ``obs.overhead.trace.records`` — total records recorded
* ``obs.overhead.trace.buffered`` — records currently in memory
* ``obs.overhead.trace.spilled_records`` / ``.spill_bytes`` /
  ``.shards`` — what went to disk (0 for the in-memory tracer)
* ``obs.overhead.hist.metrics`` — histogram metrics in the registry
* ``obs.overhead.hist.buckets`` — occupied streaming buckets (the
  memory footprint proxy)
* ``obs.overhead.mem.peak_kb`` — tracemalloc peak, when a watermark ran
"""

from __future__ import annotations

import tracemalloc
from typing import Optional

from repro.obs.metrics import HistogramMetric, MetricsRegistry
from repro.obs.tracer import Tracer


class MemoryWatermark:
    """Tracemalloc-based high-water gauge with ownership semantics.

    ``start()`` begins tracing only if tracemalloc is not already
    running (so a watermark nested inside another profiler observes
    without disturbing it), ``peak_bytes()`` reads the high-water mark,
    and ``stop()`` stops tracing only if this watermark started it.
    Tracemalloc costs real time and memory — this is an opt-in
    measurement tool, not an always-on monitor.
    """

    def __init__(self) -> None:
        self._started_here = False
        self._peak = 0

    def start(self) -> "MemoryWatermark":
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_here = True
        tracemalloc.reset_peak()
        return self

    def sample(self) -> int:
        """Record and return the peak traced bytes since :meth:`start`."""
        if tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            if peak > self._peak:
                self._peak = peak
        return self._peak

    def peak_bytes(self) -> int:
        return self.sample()

    @property
    def peak_kb(self) -> float:
        return self.sample() / 1024.0

    def stop(self) -> int:
        """Final peak in bytes; stops tracemalloc if this object started it."""
        peak = self.sample()
        if self._started_here and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_here = False
        return peak

    def __enter__(self) -> "MemoryWatermark":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def publish_overhead(
    registry: MetricsRegistry,
    tracer: Optional[Tracer] = None,
    source_registry: Optional[MetricsRegistry] = None,
    watermark: Optional[MemoryWatermark] = None,
) -> MetricsRegistry:
    """Fill the ``obs.overhead.*`` family from live observability state.

    ``registry`` receives the overhead counters; ``source_registry`` is
    the registry being measured (defaults to ``registry`` itself, but
    the CLI keeps them separate so the overhead table never pollutes an
    experiment snapshot).
    """
    if source_registry is None:
        source_registry = registry
    if tracer is not None:
        registry.counter("obs.overhead.trace.records").value = float(len(tracer))
        registry.counter("obs.overhead.trace.buffered").value = float(len(tracer.events))
        registry.counter("obs.overhead.trace.spilled_records").value = float(
            tracer.spilled_records
        )
        registry.counter("obs.overhead.trace.spill_bytes").value = float(tracer.spilled_bytes)
        registry.counter("obs.overhead.trace.shards").value = float(
            getattr(tracer, "shard_count", 0)
        )
    hist_metrics = buckets = 0
    for _name, metric in source_registry:
        if isinstance(metric, HistogramMetric):
            hist_metrics += 1
            buckets += metric.samples.bucket_count
    registry.counter("obs.overhead.hist.metrics").value = float(hist_metrics)
    registry.counter("obs.overhead.hist.buckets").value = float(buckets)
    if watermark is not None:
        registry.counter("obs.overhead.mem.peak_kb").value = round(watermark.peak_kb, 1)
    return registry
