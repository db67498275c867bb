"""Observability: simulator-wide tracing, metrics, and trace export.

See ``docs/OBSERVABILITY.md`` for the event-category and metric-naming
conventions, the streaming (constant-memory) tier, and the Perfetto
workflow.

The trace exporters (``export``), the phase timeline (``phases``) and
the self-metering (``overhead``) are re-exported lazily: a run that
writes no trace and prints no metrics never compiles them, nor
``repro.analysis``.
"""

from repro._lazy import lazy_exports
from repro.obs.metrics import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
    install_metrics,
    installed_metrics,
    uninstall_metrics,
)
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

#: Public name -> the submodule that defines it, imported on first use.
_LAZY = {
    "chrome_trace_events": "repro.obs.export",
    "iter_chrome_events": "repro.obs.export",
    "metrics_table": "repro.obs.export",
    "snapshot_table": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "PHASE_CATEGORIES": "repro.obs.phases",
    "phase_breakdown": "repro.obs.phases",
    "span_durations": "repro.obs.phases",
    "MemoryWatermark": "repro.obs.overhead",
    "publish_overhead": "repro.obs.overhead",
}

__all__ = [
    "Counter",
    "DEFAULT_RELATIVE_ERROR",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ResultSink",
    "RingTracer",
    "StreamingHistogram",
    "Tracer",
    "install_metrics",
    "install_sink",
    "install_tracer",
    "installed_metrics",
    "installed_sink",
    "installed_tracer",
    "uninstall_metrics",
    "uninstall_sink",
    "uninstall_tracer",
    *_LAZY,
]

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
