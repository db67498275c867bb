"""Fan experiments out over worker processes; fold observability back in.

Experiments are independent simulations, so ``python -m repro run all``
parallelises embarrassingly: each worker process runs one experiment at
a time with its **own** installed tracer and metrics registry, under
the run's pickled :class:`~repro.exec.config.RunConfig`, and ships the
finished :class:`~repro.experiments.base.ExperimentResult` (plus its
trace-event list) back to the parent.  The parent then folds
each worker's records into its own observability state —
:meth:`Tracer.absorb` remaps per-worker track ids,
:meth:`MetricsRegistry.absorb_flat` reloads the metrics snapshot — so
``--trace``, ``--metrics``, and the run-summary table behave exactly as
in a serial run.

Ordering: outcomes are yielded in request order regardless of which
worker finishes first, so parallel output is byte-comparable to serial
output.

With ``jobs=1`` everything runs in-process against the parent's
installed tracer/registry (no pickling, no fork), which is also the
path the cache-only fast case takes.  Either way each experiment runs
inside ``config.installed()``, by the one function :func:`_execute`.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, List, Optional

from repro.exec.cache import ResultCache
from repro.exec.config import RunConfig
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import run_experiment
from repro.obs import (
    MetricsRegistry,
    ResultSink,
    Tracer,
    install_metrics,
    install_sink,
    install_tracer,
    installed_metrics,
    installed_tracer,
    uninstall_metrics,
    uninstall_sink,
)


@dataclass
class RunOutcome:
    """Everything the CLI needs about one finished experiment."""

    exp_id: str
    result: Optional[ExperimentResult] = None
    #: Seconds spent producing this outcome *now* (near zero for a
    #: cache hit; the original simulation time lives in the cache entry).
    wall: float = 0.0
    cached: bool = False
    #: Formatted traceback when the experiment (or its worker) failed.
    error: Optional[str] = None
    #: Worker-side trace records, already folded into the parent tracer
    #: by the time the outcome is yielded.
    trace_events: List = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


def _execute(exp_id: str, quick: bool, config: RunConfig) -> RunOutcome:
    """Run one experiment with ``config`` installed; serial and worker path."""
    start = time.perf_counter()
    try:
        with config.installed():
            result = run_experiment(exp_id, quick=quick)
    except Exception:
        return RunOutcome(
            exp_id=exp_id, error=traceback.format_exc(), wall=time.perf_counter() - start
        )
    return RunOutcome(exp_id=exp_id, result=result, wall=time.perf_counter() - start)


def _worker(
    exp_id: str,
    quick: bool,
    config: RunConfig,
    with_trace: bool,
    sink_shard: Optional[str] = None,
) -> RunOutcome:
    """Run one experiment in a worker process.

    Must stay a module-level function (pickled by name).  Pool workers
    are reused across experiments, so each call installs a fresh
    registry/tracer rather than assuming a clean process; the config
    arrives pickled whole and is installed for the one experiment.
    When ``sink_shard`` is given, the worker streams its sweep points
    to that JSONL shard; the parent splices shards into the main sink
    in request order (see :meth:`ParallelRunner.run_iter`).
    """
    install_metrics(MetricsRegistry())
    tracer: Optional[Tracer] = None
    if with_trace:
        tracer = Tracer()
        install_tracer(tracer)
    shard: Optional[ResultSink] = None
    if sink_shard is not None:
        try:
            shard = ResultSink(sink_shard)
            install_sink(shard)
        except OSError:
            shard = None
    try:
        outcome = _execute(exp_id, quick, config)
    finally:
        if shard is not None:
            uninstall_sink()
            shard.close()
    if tracer is not None:
        outcome.trace_events = list(tracer.events)
    return outcome


class ParallelRunner:
    """Run a list of experiments with caching and optional parallelism.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` means in-process serial execution.
    quick:
        Passed through to every experiment's ``run(quick=...)``.
    seed:
        Run seed; overrides ``config.seed`` when given.
    cache:
        A :class:`~repro.exec.cache.ResultCache`, or ``None`` to
        disable caching (``--no-cache``).
    trace:
        Whether a live tracer is installed.  Tracing bypasses cache
        *reads* (a cached result carries no trace events) but completed
        runs are still stored.
    sink:
        A :class:`~repro.obs.ResultSink` to stream outcomes to, or
        ``None``.  Serial runs install it so experiments write sweep
        points directly; parallel runs give each worker a shard file
        and splice shards back in request order.  Either way the runner
        appends one ``result`` line per finished experiment, stamped
        with the config's variant and seed.
    config:
        The :class:`~repro.exec.config.RunConfig` installed around every
        experiment, serial or in a worker.  ``None`` means
        :meth:`RunConfig.current`: the values this process has installed
        when the runner is built.
    """

    def __init__(
        self,
        jobs: int = 1,
        quick: bool = False,
        seed: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        trace: bool = False,
        sink: Optional[ResultSink] = None,
        config: Optional[RunConfig] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.quick = bool(quick)
        self.cache = cache
        self.trace = bool(trace)
        self.sink = sink
        config = RunConfig.current() if config is None else config
        self.config = config if seed is None else replace(config, seed=int(seed))

    # -- merge ----------------------------------------------------------
    def _merge(self, outcome: RunOutcome) -> None:
        """Fold a worker outcome into the parent's observability state."""
        if outcome.trace_events:
            tracer = installed_tracer()
            if tracer.enabled:
                tracer.absorb(outcome.trace_events)
        if outcome.result is not None and outcome.result.metrics:
            registry = installed_metrics()
            if registry is not None:
                # Serial semantics: the shared registry holds the most
                # recent experiment's metrics, not an accumulation.
                registry.clear()
                state = getattr(outcome.result, "metrics_state", None)
                if state:
                    # Live state: histograms/gauges come back as real
                    # metric objects with exact (merged) percentiles,
                    # rebuilt under the run's histogram backend.
                    with self.config.installed():
                        registry.absorb_state(state)
                else:
                    registry.absorb_flat(outcome.result.metrics)

    def _sink_result(self, outcome: RunOutcome) -> None:
        """Append one ``result`` line for a finished outcome."""
        if self.sink is None:
            return
        result = outcome.result
        self.sink.result(
            outcome.exp_id,
            ok=outcome.ok,
            cached=outcome.cached,
            wall=round(outcome.wall, 6),
            anchors_held=(
                sum(1 for a in result.anchors if a.holds) if result is not None else 0
            ),
            anchors_total=len(result.anchors) if result is not None else 0,
            metrics=len(result.metrics) if result is not None else 0,
            config=self.config.variant,
            seed=self.config.seed,
        )

    def _lookup(self, exp_id: str) -> Optional[RunOutcome]:
        if self.cache is None or self.trace:
            return None
        start = time.perf_counter()
        hit = self.cache.get(exp_id, self.quick, self.config.seed, self.config.variant)
        if hit is None:
            return None
        return RunOutcome(
            exp_id=exp_id,
            result=hit.result,
            wall=time.perf_counter() - start,
            cached=True,
        )

    def _store(self, outcome: RunOutcome) -> None:
        if self.cache is None or not outcome.ok or outcome.cached:
            return
        try:
            self.cache.put(
                outcome.exp_id, self.quick, self.config.seed, outcome.result,
                outcome.wall, self.config.variant,
            )
        except Exception:
            # A full disk or unpicklable payload must not fail the run.
            pass

    def _run_local(self, exp_id: str) -> RunOutcome:
        """In-process execution against the parent's tracer/registry.

        When no registry is installed, a private one is installed for
        the duration so results carry metrics snapshots in every mode —
        a ``jobs=1`` run must not differ from a ``jobs=4`` run.
        """
        owns_registry = installed_metrics() is None
        if owns_registry:
            install_metrics(MetricsRegistry())
        try:
            return _execute(exp_id, self.quick, self.config)
        finally:
            if owns_registry:
                uninstall_metrics()

    # -- driver ---------------------------------------------------------
    def run_iter(self, exp_ids: Iterable[str]) -> Iterator[RunOutcome]:
        """Yield one outcome per experiment, in request order."""
        exp_ids = list(exp_ids)
        hits = {}
        misses: List[str] = []
        for exp_id in exp_ids:
            hit = self._lookup(exp_id)
            if hit is not None:
                hits[exp_id] = hit
            else:
                misses.append(exp_id)

        if self.jobs == 1 or len(misses) <= 1:
            if self.sink is not None:
                install_sink(self.sink)
            try:
                for exp_id in exp_ids:
                    outcome = hits.get(exp_id)
                    if outcome is None:
                        outcome = self._run_local(exp_id)
                        self._store(outcome)
                    else:
                        self._merge(outcome)
                    self._sink_result(outcome)
                    yield outcome
            finally:
                if self.sink is not None:
                    uninstall_sink()
            return

        shard_dir: Optional[str] = None
        if self.sink is not None:
            shard_dir = self.sink.path + ".shards"
            os.makedirs(shard_dir, exist_ok=True)

        def shard_path(exp_id: str) -> Optional[str]:
            if shard_dir is None:
                return None
            return os.path.join(shard_dir, f"shard-{exp_id}.jsonl")

        try:
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(misses))) as pool:
                futures = {
                    exp_id: pool.submit(
                        _worker, exp_id, self.quick, self.config, self.trace,
                        shard_path(exp_id),
                    )
                    for exp_id in misses
                }
                for exp_id in exp_ids:
                    outcome = hits.get(exp_id)
                    if outcome is None:
                        try:
                            outcome = futures[exp_id].result()
                        except Exception:
                            # Worker died (OOM, BrokenProcessPool, unpicklable
                            # result): surface it like an experiment failure.
                            outcome = RunOutcome(exp_id=exp_id, error=traceback.format_exc())
                        self._store(outcome)
                        # Splice the worker's stream in before the result
                        # line, preserving serial line order.
                        if self.sink is not None:
                            shard = shard_path(exp_id)
                            self.sink.absorb_file(shard)
                            try:
                                os.unlink(shard)
                            except OSError:
                                pass
                    self._merge(outcome)
                    self._sink_result(outcome)
                    yield outcome
        finally:
            if shard_dir is not None:
                try:
                    os.rmdir(shard_dir)
                except OSError:
                    pass

    def run(self, exp_ids: Iterable[str]) -> List[RunOutcome]:
        """Materialized :meth:`run_iter`."""
        return list(self.run_iter(exp_ids))
