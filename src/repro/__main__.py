"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list                 # enumerate experiments
    python -m repro run fig10            # run one, print its output
    python -m repro run fig2,fig5,table1 # a comma-separated subset
    python -m repro run all --quick --jobs 4   # everything, in parallel
    python -m repro run fig5 --trace out.json --metrics   # observability
    python -m repro cache stats          # inspect the result cache
    python -m repro advise 65536         # G1-G6 advice for one transfer

Repeat runs are served from a content-addressed result cache under
``.repro-cache/`` (disable with ``--no-cache``, relocate with
``REPRO_CACHE_DIR``); ``--jobs``/``REPRO_JOBS`` fans experiments out
over worker processes.  See ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.analysis.tables import Table
from repro.exec.cache import ResultCache
from repro.exec.config import RunConfig
from repro.exec.runner import ParallelRunner
from repro.experiments import all_experiments, resolve_ids
from repro.guidelines import OffloadAdvisor
from repro.obs import (
    MetricsRegistry,
    ResultSink,
    RingTracer,
    Tracer,
    install_metrics,
    install_tracer,
    uninstall_metrics,
    uninstall_tracer,
)
from repro.obs.export import snapshot_table, write_chrome_trace
from repro.obs.overhead import MemoryWatermark, publish_overhead
from repro.fleet.policy import policy_names
from repro.sim.rng import DEFAULT_SEED


def _cmd_list(_args) -> int:
    for exp_id in all_experiments():
        print(exp_id)
    return 0


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def _cmd_run(args) -> int:
    try:
        targets = resolve_ids(args.experiment)
        config = RunConfig(
            seed=args.seed,
            tier=args.tier,
            traffic=args.traffic,
            fleet=args.fleet,
            placement=args.placement,
            fault_rate=args.fault_rate,
            fault_seed=args.fault_seed,
        )
    except (KeyError, ValueError) as err:
        print(err.args[0], file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        if args.trace_buffer > 0:
            # Bounded memory: ring of recent records, full segments
            # spilled to JSONL shards, merged back at export time.
            tracer = RingTracer(capacity=args.trace_buffer)
        else:
            tracer = Tracer()
        install_tracer(tracer)
    sink = ResultSink(args.results) if args.results else None
    profiler = None
    if args.profile:
        import cProfile

        # Profiling needs the simulation in *this* process and actually
        # running: worker processes would escape the profiler, cached
        # results would profile nothing but pickle loads.
        if args.jobs != 1:
            print("--profile forces --jobs 1", file=sys.stderr)
        profiler = cProfile.Profile()
    registry = MetricsRegistry()
    install_metrics(registry)
    runner = ParallelRunner(
        jobs=1 if profiler is not None else args.jobs,
        quick=args.quick,
        cache=None if (args.no_cache or profiler is not None) else ResultCache(),
        trace=tracer is not None,
        sink=sink,
        config=config,
    )
    summary_rows = []
    failures = 0
    errors = 0
    watermark = MemoryWatermark().start() if args.metrics else None
    if profiler is not None:
        profiler.enable()
    try:
        for outcome in runner.run_iter(targets):
            exp_id = outcome.exp_id
            if not outcome.ok:
                print(f"[{exp_id} FAILED]", file=sys.stderr)
                print(outcome.error, file=sys.stderr)
                errors += 1
                summary_rows.append((exp_id, 0, 0, outcome.wall, 0, "ERROR"))
                continue
            result = outcome.result
            print(result.render())
            if args.chart and result.series:
                from repro.analysis.ascii_chart import render_experiment_charts

                print()
                print(render_experiment_charts(result))
            if args.metrics:
                print()
                print(snapshot_table(result.metrics, title=f"Metrics — {exp_id}").render())
            suffix = " (cached)" if outcome.cached else ""
            print(f"[{exp_id} finished in {outcome.wall:.1f}s{suffix}]\n")
            held = sum(1 for anchor in result.anchors if anchor.holds)
            status = "pass" if result.anchors_hold else "FAIL"
            if outcome.cached:
                status += " (cached)"
            summary_rows.append(
                (exp_id, held, len(result.anchors), outcome.wall, len(result.metrics), status)
            )
            if not result.anchors_hold:
                failures += 1
    finally:
        if profiler is not None:
            profiler.disable()
        uninstall_metrics()
        if tracer is not None:
            uninstall_tracer()
    if profiler is not None:
        import pstats

        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    if watermark is not None or tracer is not None:
        # Self-metering: what did observing this run itself cost?
        overhead = publish_overhead(
            MetricsRegistry(), tracer=tracer, source_registry=registry,
            watermark=watermark,
        )
        if args.metrics:
            print(snapshot_table(overhead.snapshot(), title="Observability overhead").render())
            print()
    if watermark is not None:
        watermark.stop()
    if tracer is not None:
        count = write_chrome_trace(tracer, args.trace)
        spilled = ""
        if tracer.spilled_records:
            spilled = (
                f" ({tracer.spilled_records} spilled across "
                f"{tracer.shard_count} shards, {tracer.spilled_bytes / 1024:.0f} KiB)"
            )
        print(f"wrote {count} trace events to {args.trace} (open in ui.perfetto.dev){spilled}")
        if isinstance(tracer, RingTracer):
            tracer.cleanup()
    if sink is not None:
        summary = sink.finalize()
        print(
            f"streamed {summary['lines']} result lines to {args.results} "
            f"({summary['series']} series, {summary['anchors_held']}/{summary['anchors']} "
            f"anchors); summary at {args.results}.summary.json"
        )
    if len(targets) > 1:
        table = Table(
            "Run summary",
            ["Experiment", "Anchors", "Status", "Wall (s)", "Metrics"],
        )
        for exp_id, held, total, wall, n_metrics, status in summary_rows:
            table.add_row(exp_id, f"{held}/{total}", status, f"{wall:.1f}", n_metrics)
        print(table.render())
    if failures:
        print(f"{failures} experiment(s) missed paper anchors", file=sys.stderr)
    if errors:
        print(f"{errors} experiment(s) raised", file=sys.stderr)
    return 1 if failures or errors else 0


def _cmd_cache(args) -> int:
    cache = ResultCache()
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} from {cache.root}")
        return 0
    stats = cache.stats()
    print(f"cache root: {stats.root}")
    print(f"entries:    {stats.entries}")
    print(f"size:       {stats.total_bytes / 1024:.1f} KiB")
    print(f"saved wall: {stats.saved_wall_s:.1f}s of simulation")
    if stats.unreadable:
        print(f"unreadable: {stats.unreadable}")
    if stats.by_experiment:
        table = Table("Entries by experiment", ["Experiment", "Entries"])
        for exp_id in sorted(stats.by_experiment):
            table.add_row(exp_id, stats.by_experiment[exp_id])
        print(table.render())
    return 0


def _cmd_advise(args) -> int:
    advisor = OffloadAdvisor()
    recommendation = advisor.recommend(
        args.size,
        asynchronous_possible=not args.sync_only,
        contiguous=not args.scattered,
        consumer_reads_soon=args.hot,
        pollution_sensitive_corunners=args.pollution_sensitive,
        submitting_threads=args.threads,
        available_wqs=args.wqs,
    )
    verdict = "OFFLOAD to DSA" if recommendation.use_dsa else "keep on the CPU"
    print(f"{args.size} bytes -> {verdict}")
    if recommendation.use_dsa:
        print(f"  mode:          {'async' if recommendation.asynchronous else 'sync'}")
        print(f"  batch size:    {recommendation.batch_size}")
        print(f"  cache control: {recommendation.cache_control}")
        print(f"  WQ mode:       {recommendation.wq_mode.value}")
    for reason in recommendation.reasons:
        print(f"  - {reason}")
    if recommendation.guidelines:
        print(f"  guidelines applied: {', '.join(sorted(recommendation.guidelines))}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction harness for the ASPLOS'24 DSA paper",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids").set_defaults(func=_cmd_list)

    run_parser = sub.add_parser(
        "run", help="run experiments: one id, a comma-separated list, or 'all'"
    )
    run_parser.add_argument("experiment", help="'all', one id, or e.g. fig2,fig5,table1")
    run_parser.add_argument("--quick", action="store_true", help="reduced sweeps")
    run_parser.add_argument("--chart", action="store_true", help="ASCII plots of the series")
    run_parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=_default_jobs(),
        metavar="N",
        help="worker processes (default: $REPRO_JOBS or 1)",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        metavar="SEED",
        help="run seed for every experiment's default RNG streams",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not update the result cache",
    )
    run_parser.add_argument(
        "--trace",
        metavar="PATH",
        help="export a Chrome/Perfetto trace.json of the run to PATH "
        "(bypasses cache reads)",
    )
    run_parser.add_argument(
        "--trace-buffer",
        type=int,
        default=0,
        metavar="N",
        help="bound trace memory to a ring of N records; full segments "
        "spill to JSONL shards and are merged at export (0 = unbounded "
        "in-memory tracer, the default); see docs/OBSERVABILITY.md",
    )
    run_parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics-registry snapshot after each experiment "
        "plus a final observability-overhead table",
    )
    run_parser.add_argument(
        "--tier",
        choices=["small", "medium", "large"],
        default="small",
        help="scale tier for the traffic-* experiments: small (~10K "
        "requests, tier-1 CI), medium (~200K), or large (~2M, the nightly "
        "constant-memory soak); see docs/TRAFFIC.md for expected timings",
    )
    run_parser.add_argument(
        "--traffic",
        choices=["default", "poisson", "bursty", "diurnal"],
        default="default",
        help="override every traffic tenant's arrival process (default: "
        "each tenant's declared kind); see docs/TRAFFIC.md",
    )
    run_parser.add_argument(
        "--fleet",
        metavar="SxD",
        default="1x1",
        help="fleet topology for the traffic experiments: SOCKETSxDEVICES "
        "(e.g. 2x4 = 2 sockets with 4 DSA instances each); requests are "
        "placed across the fleet by --placement and disabled devices fail "
        "over (default: the historical single-device 1x1 layout); see "
        "docs/ARCHITECTURE.md",
    )
    run_parser.add_argument(
        "--placement",
        choices=sorted(policy_names()),
        default="round-robin",
        help="fleet placement policy: round-robin (topology-blind), "
        "numa-local (prefer the submitter's socket, no UPI crossing), or "
        "least-loaded (fewest bytes in flight); only meaningful with "
        "--fleet",
    )
    run_parser.add_argument(
        "--results",
        metavar="PATH",
        help="stream completed sweep series, anchors, and per-experiment "
        "outcomes to a JSONL file as they finish; writes PATH.summary.json "
        "at the end",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile the run in-process (forces --jobs 1 and --no-cache); "
        "prints the top 25 functions by cumulative time",
    )
    run_parser.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        metavar="P",
        help="inject page faults on a fraction P of device page translations; "
        "each experiment gets a fresh injector seeded by --fault-seed, "
        "serial or under --jobs, and the rate and seed salt the cache key; "
        "see docs/ARCHITECTURE.md",
    )
    run_parser.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="seed for the injection streams (default: the run seed, --seed)",
    )
    run_parser.set_defaults(func=_cmd_run)

    cache_parser = sub.add_parser("cache", help="inspect or clear the result cache")
    cache_parser.add_argument(
        "cache_command",
        choices=["stats", "clear"],
        help="stats: summarize entries; clear: delete every entry",
    )
    cache_parser.set_defaults(func=_cmd_cache)

    advise = sub.add_parser("advise", help="G1-G6 advice for a transfer size")
    advise.add_argument("size", type=int)
    advise.add_argument("--sync-only", action="store_true")
    advise.add_argument("--scattered", action="store_true")
    advise.add_argument("--hot", action="store_true", help="consumer reads the data soon")
    advise.add_argument("--pollution-sensitive", action="store_true")
    advise.add_argument("--threads", type=int, default=1)
    advise.add_argument("--wqs", type=int, default=1)
    advise.set_defaults(func=_cmd_advise)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
