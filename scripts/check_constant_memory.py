#!/usr/bin/env python
"""CI smoke: streaming observability runs in constant memory.

Drives the full streaming stack — a ``RingTracer`` (bounded ring,
spill-to-disk), a ``HistogramMetric`` (streaming buckets), and a
``ResultSink`` — through a synthetic descriptor workload at two sizes
(default 1e5 and 1e6 records+samples) and compares the tracemalloc
peaks.  If memory is genuinely O(capacity + buckets) rather than
O(records), a 10x larger run must not grow the peak by more than
``--tolerance`` (default 10%): the ring, the bucket map, and the sink's
line buffer are all full well before the small run finishes.

Exits 0 when the peak is flat, 1 when it grew — wire it into CI as a
regression tripwire for accidental unbounded accumulation anywhere on
the record path (e.g. a forgotten list.append in the tracer, a
per-sample side list in the histogram, or the sink buffering lines).

    PYTHONPATH=src python scripts/check_constant_memory.py

``--traffic`` switches the workload to the real serving mode: a
64-tenant overloaded ``LoadGenerator`` profile (retries, drops, SLO
windows, per-source attribution all active) driven end to end at the
two request counts.  That is the constant-memory claim docs/TRAFFIC.md
makes for the large tier — request lifetime is bounded (bounded
retries, bounded queues), per-tenant accounting is streaming, so peak
memory must not scale with request count:

    PYTHONPATH=src python scripts/check_constant_memory.py \\
        --traffic --small 20000 --big 200000
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
import tempfile
import tracemalloc

from repro.obs import MetricsRegistry, ResultSink, RingTracer

RING_CAPACITY = 1 << 13


def drive(n, workdir):
    """Emit ``n`` trace records, ``n`` histogram samples, n/1000 sink lines."""
    tracer = RingTracer(capacity=RING_CAPACITY, spill_dir=str(workdir / "spill"))
    registry = MetricsRegistry()
    hist = registry.histogram("smoke.lat")
    sink = ResultSink(workdir / "results.jsonl")
    rng = random.Random(13)
    complete = tracer.complete
    add = hist.add
    try:
        for i in range(n):
            complete(float(i), 2.0, "memmove", "execute", "eng0", 1, {"bytes": 4096})
            add(rng.lognormvariate(3.0, 1.2))
            if not i % 1000:
                sink.series("smoke", "lat", [(i, hist.percentile(50))])
        registry.counter("smoke.records").add(n)
    finally:
        sink.close()
        tracer.cleanup()
    return len(hist.samples)


def drive_traffic(requests, workdir):
    """Run the serving mode end to end: 64 overloaded bursty tenants.

    ``workdir`` is unused (the traffic path holds no spill files); the
    signature matches :func:`drive` so :func:`measure` can run either.
    Aggregate load is 1.15x the device's planning capacity on a small
    SWQ, so retries, drops, SLO-violation windows, and per-source
    attribution counters are all live — the full accounting surface.
    """
    from repro.dsa.config import DeviceConfig, WqMode
    from repro.traffic import (
        SizeDist,
        TrafficProfile,
        drive_profile,
        dsa_capacity,
        make_tenants,
    )

    profile = TrafficProfile(
        name="const-mem",
        tenants=make_tenants(
            "t",
            64,
            1.15 * dsa_capacity(8192, engines=4),
            arrival="bursty",
            cv2=4.0,
            sizes=SizeDist(kind="fixed", size=8192),
        ),
    )
    drive_profile(
        profile,
        requests,
        device_config=DeviceConfig.single(wq_size=32, n_engines=4, mode=WqMode.SHARED),
    )


def measure(n, workdir, workload=drive):
    tracemalloc.start()
    tracemalloc.reset_peak()
    workload(n, workdir)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", type=int, default=100_000, help="baseline record count")
    parser.add_argument("--big", type=int, default=1_000_000, help="scaled record count")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional peak growth from --small to --big",
    )
    parser.add_argument(
        "--traffic",
        action="store_true",
        help="drive the repro.traffic serving mode (open-loop multi-tenant "
        "LoadGenerator under overload) instead of the synthetic record "
        "workload; counts are requests",
    )
    args = parser.parse_args(argv)
    if args.big <= args.small:
        parser.error("--big must exceed --small")
    workload = drive_traffic if args.traffic else drive

    import pathlib

    root = pathlib.Path(tempfile.mkdtemp(prefix="const_mem_"))
    try:
        # Warm-up run stabilizes allocator/import caches before measuring.
        workload(min(args.small, 10_000), root / "warmup")
        small_peak = measure(args.small, root / "small", workload)
        big_peak = measure(args.big, root / "big", workload)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    growth = big_peak / small_peak - 1.0
    scale = args.big / args.small
    print(
        f"peak @ {args.small:>9,d} records: {small_peak/1024:10.1f} KiB\n"
        f"peak @ {args.big:>9,d} records: {big_peak/1024:10.1f} KiB\n"
        f"growth {growth:+.1%} across a {scale:.0f}x workload "
        f"(tolerance {args.tolerance:.0%})"
    )
    if growth > args.tolerance:
        print("FAIL: peak memory scales with record count")
        return 1
    print("PASS: constant-memory envelope holds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
