"""Measurement utilities shared by all models and experiments."""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence


class OnlineStat:
    """Streaming mean / variance / min / max (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)


class TimeWeightedStat:
    """Time-weighted average of a piecewise-constant signal.

    Used for e.g. average queue depth and LLC occupancy: call
    :meth:`update` whenever the level changes; the mean weights each
    level by how long it was held.
    """

    def __init__(self, start_time: float = 0.0, initial: float = 0.0):
        self._last_time = start_time
        self._level = initial
        self._area = 0.0
        self._origin = start_time
        self.maximum = initial

    @property
    def level(self) -> float:
        return self._level

    @property
    def last_time(self) -> float:
        """Timestamp of the most recent :meth:`update` (or epoch start)."""
        return self._last_time

    @property
    def elapsed(self) -> float:
        """Observed span of the current averaging epoch."""
        return self._last_time - self._origin

    def update(self, now: float, level: float) -> None:
        if now < self._last_time:
            raise ValueError(f"time went backwards: {now} < {self._last_time}")
        self._area += self._level * (now - self._last_time)
        self._last_time = now
        self._level = level
        if level > self.maximum:
            self.maximum = level

    def restart_epoch(self, now: float) -> None:
        """Restart averaging at ``now``; the level and maximum carry over.

        This is the supported way to reuse one stat across successive
        simulations whose clocks restart at zero (a shared metrics
        registry sees exactly that): the accumulated area and origin are
        discarded, the current level keeps being held from ``now``, and
        the maximum additionally remembers the level that was live when
        the epoch ended.
        """
        if self._level > self.maximum:
            self.maximum = self._level
        self._last_time = now
        self._origin = now
        self._area = 0.0

    def mean(self, now: Optional[float] = None) -> float:
        end = self._last_time if now is None else now
        span = end - self._origin
        if span <= 0:
            return self._level
        area = self._area + self._level * (end - self._last_time)
        return area / span

    def state(self) -> Dict[str, float]:
        """Serializable snapshot, invertible via :meth:`from_state`."""
        return {
            "last_time": self._last_time,
            "level": self._level,
            "area": self._area,
            "origin": self._origin,
            "maximum": self.maximum,
        }

    @classmethod
    def from_state(cls, state: Dict[str, float]) -> "TimeWeightedStat":
        stat = cls(start_time=state["origin"], initial=state["level"])
        stat._area = state["area"]
        stat._last_time = state["last_time"]
        stat.maximum = state["maximum"]
        return stat


class Histogram:
    """Exact-percentile sample container (lazy sort).

    Samples are appended in O(1) and sorted only when a read needs
    order (percentiles, min/max, ``count_below``); a dirty flag makes
    repeated reads free.  This keeps exact percentiles — which matters
    for the paper's p99.999 claims (Fig 19) — without the O(n²) cost
    per run that sorted insertion had for large sample counts.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._dirty = False
        self._sum = 0.0

    def add(self, value: float) -> None:
        self._samples.append(value)
        self._dirty = True
        self._sum += value

    def extend(self, values: Sequence[float]) -> None:
        for value in values:
            self.add(value)

    def _ordered(self) -> List[float]:
        if self._dirty:
            # Timsort is O(n) when only a tail of new samples is unsorted.
            self._samples.sort()
            self._dirty = False
        return self._samples

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def values(self) -> List[float]:
        """All samples in sorted order (a copy; safe to mutate)."""
        return list(self._ordered())

    @property
    def mean(self) -> float:
        return self._sum / len(self._samples) if self._samples else 0.0

    @property
    def minimum(self) -> float:
        return self._ordered()[0] if self._samples else 0.0

    @property
    def maximum(self) -> float:
        return self._ordered()[-1] if self._samples else 0.0

    def percentile(self, pct: float) -> float:
        """Nearest-rank percentile; ``pct`` in [0, 100].

        Raises :class:`ValueError` on an empty histogram: a percentile
        of nothing is not 0.0 (a silent zero once leaked into a latency
        table as a perfect p99), and callers that can legitimately see
        an empty histogram should branch on ``len(hist)`` — or use
        :meth:`summary`, which reports the empty state explicitly.
        """
        if not self._samples:
            raise ValueError("percentile() of an empty histogram is undefined")
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        ordered = self._ordered()
        rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def count_below(self, threshold: float) -> int:
        return bisect_right(self._ordered(), threshold)

    def merge(self, other: "Histogram") -> None:
        """Fold another exact histogram's samples in (exact merge)."""
        if other._samples:
            self._samples.extend(other._samples)
            self._sum += other._sum
            self._dirty = True

    def summary(self) -> Dict[str, float]:
        if not self._samples:  # empty is reportable, all-zero by contract
            return {"count": 0.0, "mean": 0.0, "min": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
        return {
            "count": float(len(self._samples)),
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.maximum,
        }
