"""Registry of named counters, gauges, and histograms.

Components register metrics under hierarchical dotted names
(``dsa0.wq1.occupancy``, ``mem.dram0.rd.bytes``, ``core0.wait.spin_ns``)
and update them as the simulation runs.  A registry is clock-free: the
time-weighted gauges take ``now`` explicitly, so one registry can be
shared across several :class:`~repro.sim.engine.Environment` instances
(the CLI installs a shared registry for ``--metrics``).

Hot-path discipline: components create their metric objects **once**
(at construction) and keep them in attributes, so each update is an
attribute access plus a float add — no per-event name lookup.

Histograms
----------
:class:`HistogramMetric` keeps its samples in a
:class:`repro.obs.streaming.StreamingHistogram`: fixed log buckets,
percentiles within a documented 1% relative error, O(1) memory, and an
exact bucket-wise merge across worker registries.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.obs.streaming import StreamingHistogram
from repro.sim.stats import TimeWeightedStat


class Counter:
    """Monotonic accumulator (counts or totals, e.g. bytes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Piecewise-constant level, time-weighted over simulated time.

    Backed by :class:`~repro.sim.stats.TimeWeightedStat`.  When a shared
    registry sees updates from a *new* simulation (time goes backwards),
    the gauge restarts its averaging epoch at the new clock rather than
    raising — the level and maximum carry over, the mean restarts.
    """

    __slots__ = ("name", "_stat")

    def __init__(self, name: str):
        self.name = name
        self._stat = TimeWeightedStat()

    def update(self, now: float, level: float) -> None:
        # TimeWeightedStat.update inlined: a WQ occupancy or pool depth
        # gauge updates twice per request.
        stat = self._stat
        last = stat._last_time
        if now < last:
            stat.restart_epoch(now)
            last = now
        stat._area += stat._level * (now - last)
        stat._last_time = now
        stat._level = level
        if level > stat.maximum:
            stat.maximum = level

    @property
    def level(self) -> float:
        return self._stat.level

    @property
    def maximum(self) -> float:
        return self._stat.maximum

    def mean(self, now: Optional[float] = None) -> float:
        return self._stat.mean(now)


class HistogramMetric:
    """Named sample distribution; ``samples`` is its
    :class:`~repro.obs.streaming.StreamingHistogram`."""

    __slots__ = ("name", "samples")

    def __init__(self, name: str):
        self.name = name
        self.samples = StreamingHistogram()

    def add(self, value: float) -> None:
        self.samples.add(value)

    def percentile(self, pct: float) -> float:
        return self.samples.percentile(pct)

    def summary(self) -> Dict[str, float]:
        return self.samples.summary()

    # -- merge / serialization ------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """Bucket counts; merged exactly by :meth:`absorb_state`."""
        return self.samples.state()

    def absorb_state(self, state: Dict[str, Any]) -> None:
        """Fold a worker histogram's exported state in, bucket for bucket."""
        self.samples.merge(StreamingHistogram.from_state(state))


Metric = Union[Counter, Gauge, HistogramMetric]


class MetricsRegistry:
    """Get-or-create store of named metrics, snapshotable to a flat dict."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Tuple[str, Metric]]:
        return iter(sorted(self._metrics.items()))

    def _get_or_create(self, name: str, kind: type) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> HistogramMetric:
        return self._get_or_create(name, HistogramMetric)  # type: ignore[return-value]

    def snapshot(self) -> Dict[str, float]:
        """Flatten every metric into ``{dotted.name: value}``.

        Counters export their value under their own name; gauges export
        ``.level`` / ``.mean`` / ``.max`` leaves; histograms export
        ``.count`` / ``.mean`` / ``.p50`` / ``.p99`` / ``.max`` leaves.
        """
        flat: Dict[str, float] = {}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                flat[name] = metric.value
            elif isinstance(metric, Gauge):
                flat[f"{name}.level"] = metric.level
                flat[f"{name}.mean"] = metric.mean()
                flat[f"{name}.max"] = metric.maximum
            else:
                summary = metric.summary()
                for leaf in ("count", "mean", "p50", "p99", "max"):
                    flat[f"{name}.{leaf}"] = summary[leaf]
        return dict(sorted(flat.items()))

    def export_state(self) -> Dict[str, Tuple[str, Any]]:
        """Serializable live state: ``{name: (kind, payload)}``.

        Unlike :meth:`snapshot`, this is invertible — histograms carry
        their bucket counts, gauges
        their full time-weighted state — so a worker registry can be
        folded into a parent with :meth:`absorb_state` *without* losing
        distribution shape.  Payloads are plain dicts/lists (picklable
        and JSON-able).
        """
        state: Dict[str, Tuple[str, Any]] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                state[name] = ("counter", metric.value)
            elif isinstance(metric, Gauge):
                state[name] = ("gauge", metric._stat.state())
            else:
                state[name] = ("histogram", metric.export_state())
        return state

    def absorb_state(self, state: Dict[str, Tuple[str, Any]]) -> None:
        """Merge an :meth:`export_state` dict into this registry, exactly.

        Counters sum; histograms merge bucket for bucket, so a merged
        ``p99`` is the ``p99`` of the union, not the last worker's value.  Gauges merge
        conservatively: the maximum is the max of maxima, the level is
        the incoming level, and the mean is the span-weighted average of
        the two epochs (exact when the epochs cover disjoint runs, which
        is how the parallel runner uses it).
        """
        for name, (kind, payload) in state.items():
            if kind == "counter":
                self.counter(name).value += float(payload)
            elif kind == "gauge":
                gauge = self.gauge(name)
                incoming = TimeWeightedStat.from_state(payload)
                mine = gauge._stat
                if mine.elapsed <= 0 and mine.maximum == 0.0 and mine.level == 0.0:
                    gauge._stat = incoming
                    continue
                span = mine.elapsed + incoming.elapsed
                if span > 0:
                    area = mine.mean() * mine.elapsed + incoming.mean() * incoming.elapsed
                    merged = TimeWeightedStat(start_time=0.0, initial=0.0)
                    merged.update(span, incoming.level)
                    merged._area = area  # reuse the stat's own integrator
                    gauge._stat = merged
                gauge._stat.maximum = max(mine.maximum, incoming.maximum)
            elif kind == "histogram":
                self.histogram(name).absorb_state(payload)
            else:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")

    def absorb_flat(self, flat: Dict[str, float]) -> None:
        """Fold a flat :meth:`snapshot` dict in as plain counters.

        Lossy fallback for payloads that only carry a snapshot (old
        cache entries): snapshot leaves (``foo.level``, ``foo.p99``, …)
        cannot be turned back into live gauges or histograms, so each
        leaf lands as a counter holding the final value — which is all
        the CLI's rendering paths need.  A leaf that already exists as a
        counter is overwritten, not summed (snapshots are absolute
        values, not deltas).  Prefer :meth:`absorb_state` wherever the
        producer can export live state.
        """
        for name, value in flat.items():
            self.counter(name).value = float(value)

    def clear(self) -> None:
        self._metrics.clear()


_installed: Optional[MetricsRegistry] = None


def install_metrics(registry: MetricsRegistry) -> None:
    """Share ``registry`` with every Environment created afterwards."""
    global _installed
    _installed = registry


def uninstall_metrics() -> None:
    global _installed
    _installed = None


def installed_metrics() -> Optional[MetricsRegistry]:
    return _installed
