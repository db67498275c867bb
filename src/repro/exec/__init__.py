"""Experiment execution: parallel fan-out and a content-addressed cache.

``repro.exec`` is the layer between the CLI and the experiment
registry.  It owns *how* experiments run — the run configuration,
worker processes, result caching, observability merge — while the
experiments themselves stay plain ``run(quick=...)`` functions.  See ``docs/PERFORMANCE.md``.

Every name here is re-exported lazily: ``import repro.exec.runner``
for a serial, uncached run compiles neither the cache nor the source
fingerprinter.  The ``fingerprint`` function is not re-exported: the
package attribute of that name is the submodule
``repro.exec.fingerprint`` once anything has imported it, so a lazy
function of the same name would depend on import order.
"""

from repro._lazy import lazy_exports

#: Public name -> the submodule that defines it, imported on first use.
_LAZY = {
    "CachedResult": "repro.exec.cache",
    "CacheStats": "repro.exec.cache",
    "ResultCache": "repro.exec.cache",
    "RunConfig": "repro.exec.config",
    "source_closure": "repro.exec.fingerprint",
    "ParallelRunner": "repro.exec.runner",
    "RunOutcome": "repro.exec.runner",
}

__all__ = list(_LAZY)

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)
