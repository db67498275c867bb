"""Observability: simulator-wide tracing, metrics, and trace export.

See ``docs/OBSERVABILITY.md`` for the event-category and metric-naming
conventions, the streaming (constant-memory) tier, and the Perfetto
workflow.
"""

from repro.obs.export import (
    chrome_trace_events,
    iter_chrome_events,
    metrics_table,
    snapshot_table,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    install_metrics,
    installed_metrics,
    uninstall_metrics,
)
from repro.obs.overhead import MemoryWatermark, publish_overhead
from repro.obs.phases import PHASE_CATEGORIES, phase_breakdown, span_durations
from repro.obs.sink import ResultSink, install_sink, installed_sink, uninstall_sink
from repro.obs.streaming import DEFAULT_RELATIVE_ERROR, StreamingHistogram
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    RingTracer,
    Tracer,
    install_tracer,
    installed_tracer,
    uninstall_tracer,
)

__all__ = [
    "Counter",
    "DEFAULT_RELATIVE_ERROR",
    "Gauge",
    "HistogramMetric",
    "MemoryWatermark",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "PHASE_CATEGORIES",
    "ResultSink",
    "RingTracer",
    "StreamingHistogram",
    "Tracer",
    "chrome_trace_events",
    "install_metrics",
    "install_sink",
    "install_tracer",
    "installed_metrics",
    "installed_sink",
    "installed_tracer",
    "iter_chrome_events",
    "metrics_table",
    "phase_breakdown",
    "publish_overhead",
    "snapshot_table",
    "span_durations",
    "uninstall_metrics",
    "uninstall_sink",
    "uninstall_tracer",
    "write_chrome_trace",
]
