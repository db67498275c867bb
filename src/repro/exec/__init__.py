"""Experiment execution: parallel fan-out and a content-addressed cache.

``repro.exec`` is the layer between the CLI and the experiment
registry.  It owns *how* experiments run — the run configuration,
worker processes, result caching, observability merge — while the
experiments themselves stay plain ``run(quick=...)`` functions.  See ``docs/PERFORMANCE.md``.
"""

from repro.exec.cache import CachedResult, CacheStats, ResultCache
from repro.exec.config import RunConfig
from repro.exec.fingerprint import fingerprint, source_closure
from repro.exec.runner import ParallelRunner, RunOutcome

__all__ = [
    "CachedResult",
    "CacheStats",
    "ParallelRunner",
    "ResultCache",
    "RunConfig",
    "RunOutcome",
    "fingerprint",
    "source_closure",
]
