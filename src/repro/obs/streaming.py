"""Constant-memory streaming histogram with bounded relative error.

:class:`StreamingHistogram` is a fixed log-bucket (HDR/DDSketch-style)
online histogram: values land in geometrically spaced buckets indexed
by ``ceil(log_gamma(value))`` with ``gamma = (1 + alpha) / (1 - alpha)``,
so any quantile read back from a bucket's representative value is
within ``alpha`` relative error of the exact sample (default 1%).
Memory is O(number of occupied buckets) — for simulated latencies
spanning twelve decades at ``alpha = 0.01`` that is a few thousand
buckets, independent of how many samples were added — and two
histograms with the same ``alpha`` merge *exactly* by adding bucket
counts, which is what makes worker-side percentiles foldable into a
parent registry without shipping samples.

The API deliberately mirrors :class:`repro.sim.stats.Histogram` (which
stores every sample): ``add``/``extend``/``percentile``/``summary``/
``mean``/``minimum``/``maximum``/``__len__``.
:class:`repro.obs.metrics.HistogramMetric` keeps one behind its
``samples`` attribute.  Count, sum, min, and max are tracked exactly;
only interior percentiles are approximate.

Error bound
-----------
For a positive sample ``x`` stored in bucket ``i = ceil(log_gamma(x))``
the representative ``r_i = 2 * gamma**i / (gamma + 1)`` satisfies
``|r_i - x| / x <= alpha`` (the classic DDSketch guarantee).  Negative
values use mirrored buckets; zeros get a dedicated slot.  Percentiles
are additionally clamped to the exact observed ``[min, max]``, so the
extreme quantiles (p0/p100) are exact.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

#: Default relative-error bound; documented in docs/OBSERVABILITY.md.
DEFAULT_RELATIVE_ERROR = 0.01


class StreamingHistogram:
    """Fixed log-bucket online histogram; O(buckets) memory, mergeable."""

    __slots__ = (
        "alpha",
        "_gamma",
        "_log_gamma",
        "count",
        "_sum",
        "minimum",
        "maximum",
        "_pos",
        "_neg",
        "_zero",
        "_sorted_pos",
        "_sorted_neg",
        "_dirty",
    )

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR):
        if not 0.0 < relative_error < 1.0:
            raise ValueError(f"relative_error out of (0, 1): {relative_error}")
        self.alpha = relative_error
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self.count = 0
        self._sum = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        #: bucket index -> sample count, for positive / negative values.
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._zero = 0
        self._sorted_pos: Optional[List[int]] = None
        self._sorted_neg: Optional[List[int]] = None
        self._dirty = True

    # -- writes ----------------------------------------------------------
    def add(self, value: float) -> None:
        self.count += 1
        self._sum += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if value > 0.0:
            index = math.ceil(math.log(value) / self._log_gamma)
            self._pos[index] = self._pos.get(index, 0) + 1
        elif value < 0.0:
            index = math.ceil(math.log(-value) / self._log_gamma)
            self._neg[index] = self._neg.get(index, 0) + 1
        else:
            self._zero += 1
        self._dirty = True

    def extend(self, values) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "StreamingHistogram") -> None:
        """Exact bucket-wise merge of another histogram with equal alpha."""
        if not isinstance(other, StreamingHistogram):
            raise TypeError(f"cannot merge {type(other).__name__}")
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ValueError(
                f"bucket layouts differ: alpha {self.alpha} vs {other.alpha}"
            )
        for index, n in other._pos.items():
            self._pos[index] = self._pos.get(index, 0) + n
        for index, n in other._neg.items():
            self._neg[index] = self._neg.get(index, 0) + n
        self._zero += other._zero
        self.count += other.count
        self._sum += other._sum
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        self._dirty = True

    # -- reads -----------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    @property
    def bucket_count(self) -> int:
        """Occupied buckets — the histogram's memory footprint proxy."""
        return len(self._pos) + len(self._neg) + (1 if self._zero else 0)

    @property
    def mean(self) -> float:
        return self._sum / self.count if self.count else 0.0

    def _representative(self, index: int) -> float:
        return 2.0 * self._gamma**index / (self._gamma + 1.0)

    def _ordered(self):
        if self._dirty:
            self._sorted_neg = sorted(self._neg, reverse=True)  # most negative first
            self._sorted_pos = sorted(self._pos)
            self._dirty = False
        return self._sorted_neg, self._sorted_pos

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile within ``alpha`` relative error.

        Raises :class:`ValueError` when empty, mirroring the exact
        backend — the two are drop-in interchangeable, including in
        what they refuse to answer.
        """
        if not self.count:
            raise ValueError("percentile() of an empty histogram is undefined")
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        rank = max(1, math.ceil(pct / 100.0 * self.count))
        sorted_neg, sorted_pos = self._ordered()
        seen = 0
        value = None
        for index in sorted_neg:
            seen += self._neg[index]
            if seen >= rank:
                value = -self._representative(index)
                break
        if value is None:
            seen += self._zero
            if seen >= rank:
                value = 0.0
        if value is None:
            for index in sorted_pos:
                seen += self._pos[index]
                if seen >= rank:
                    value = self._representative(index)
                    break
        if value is None:  # rank == count and rounding dust: take the top
            value = self.maximum
        # Representatives can poke past the observed range; min/max are
        # tracked exactly, so clamping only ever improves the estimate.
        return min(max(value, self.minimum), self.maximum)

    def summary(self) -> Dict[str, float]:
        """Same shape as the exact backend's summary (plus nothing)."""
        if not self.count:  # empty is reportable, all-zero by contract
            return {"count": 0.0, "mean": 0.0, "min": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.maximum,
        }

    # -- serialization ---------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Picklable/JSON-able snapshot, invertible via :meth:`from_state`."""
        return {
            "alpha": self.alpha,
            "count": self.count,
            "sum": self._sum,
            "min": self.minimum,
            "max": self.maximum,
            "zero": self._zero,
            "pos": dict(self._pos),
            "neg": dict(self._neg),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "StreamingHistogram":
        hist = cls(relative_error=state["alpha"])
        hist.count = int(state["count"])
        hist._sum = float(state["sum"])
        hist.minimum = float(state["min"])
        hist.maximum = float(state["max"])
        hist._zero = int(state["zero"])
        # JSON round-trips turn int keys into strings; accept both.
        hist._pos = {int(k): int(v) for k, v in state["pos"].items()}
        hist._neg = {int(k): int(v) for k, v in state["neg"].items()}
        return hist
