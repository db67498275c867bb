"""The simulator's benchmark: host time per workload, end to end and by layer.

    PYTHONPATH=src python bench/run.py [--workload NAME ...] [--seed S]
        [--repeats N | --seconds S] [--sets N] [--trace [0|1]] [--smoke]
        [--out PATH]

Every pass of every workload runs in its own fresh single-process
interpreter (``bench/worker.py``), serially, with ``jobs=1`` and no
result cache.  The end-to-end metrics are measured with tracing off and
printed by name with their unit as median and quartiles over the
passes; ``setup_s`` also counts four set-up-only starts per workload.
``--trace`` adds one pass of each workload under cProfile, which gives
the per-layer metrics and ``trace_overhead``.

Host speed on a shared machine drifts: on a 2-vCPU VM the same pass
ran up to 65% slower for minutes at a time, with CPU time tracking wall
time.  So every worker times a fixed ~2 ms stdlib-only probe right after
set-up and, in a pass, every 0.25 s of the simulated call.
``setup_s`` and ``wall_s`` are scaled by :func:`host_speed` of those
probes: host seconds at the reference host's speed.  The factor applied
to each pass's ``wall_s`` is kept as ``host_speed``.

Correctness: each pass checks the experiment anchors, conservation and
zero-loss accounting, and every pass of a workload at one seed must
produce the same ``sim_digest`` (traced or not, in any set).  A failed
check counts in ``error_rate``; any failure makes the exit code 1.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics with ``--trace``.  Metric
names are prefixed ``WORKLOAD/`` when more than one workload ran.
``--out`` writes every sample, digest and traced number as JSON for
``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")

WORKLOADS = (
    "paper-quick",
    "traffic-crossover-medium",
    "traffic-retry-medium",
    "fleet-failover",
)
#: The simulator's own default seed.
DEFAULT_SEED = 0xD5A
#: Set-up-only starts per workload and set; with at least one pass, a
#: set has five or more set-up samples.
SETUP_SAMPLES = 4
#: Seconds ``worker.probe_seconds()`` takes on the reference host
#: (2-vCPU VM, CPython 3.11.7): the baseline's median.
PROBE_S = 0.0016
#: How much of the probe's slowdown the simulation feels: part of a pass
#: is memory stalls that a slower core does not stretch.  Fitted on that
#: host as the slope of log pass time over log mean probe time, pooled
#: over 36 passes of the four workloads (0.78; 0.61-1.04 per workload).
PROBE_EXPONENT = 0.8
#: Per-pass samples: the end-to-end metrics plus the speed factor.
SAMPLED = ("wall_s", "requests_per_s", "setup_s", "peak_rss_mb", "host_speed")
#: A pass that takes longer is killed and counted as a failed check.
PASS_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` cuts them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spawn(workload: str, seed: int, smoke: bool, *flags: str) -> Tuple[Optional[dict], str]:
    """Run one worker pass; ``(report, "")`` or ``(None, why it failed)``."""
    cmd = [sys.executable, WORKER, workload, "--seed", str(seed), *flags]
    if smoke:
        cmd.append("--smoke")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
        # numpy's BLAS pool is idle in the simulator; keep the pass one thread.
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, f"{workload}: pass killed after {PASS_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"{workload}: worker exited {proc.returncode}: {proc.stderr.strip()[-800:]}"
    report = json.loads(lines[-1])
    report["setup_s"] = (report["ready_at"] - spawned) * host_speed(report["setup_probes"])
    if "wall_s" in report:
        report["host_speed"] = host_speed(report["probes"])
        report["wall_s"] *= report["host_speed"]
    return report, ""


def host_speed(probes: List[float]) -> float:
    """Mean of ``(PROBE_S / probe) ** PROBE_EXPONENT`` over the probes.

    For probes spaced evenly in wall time, this is the share of
    reference-speed work the host did per second while they ran.
    """
    return statistics.fmean((PROBE_S / p) ** PROBE_EXPONENT for p in probes)


class Workload:
    """Samples, checks and the reference digest of one workload."""

    def __init__(self, name: str, seed: int, smoke: bool):
        self.name, self.seed, self.smoke = name, seed, smoke
        self.attempted = 0
        self.failures: List[str] = []
        self.digest: Optional[str] = None

    def _fail(self, why: str) -> None:
        self.failures.append(why)
        print(f"FAIL {why}", file=sys.stderr)

    def spawn(self, *flags: str) -> Optional[dict]:
        """One pass; books its checks and compares its digest to the first."""
        report, error = _spawn(self.name, self.seed, self.smoke, *flags)
        if report is None:
            self.attempted += 1
            self._fail(error)
            return None
        if "wall_s" in report:
            self.attempted += report["checks"]
            for failure in report["failures"]:
                self._fail(f"{self.name}: {failure}")
            if self.digest is None:
                self.digest = report["sim_digest"]
            else:
                self.attempted += 1
                if report["sim_digest"] != self.digest:
                    self._fail(f"{self.name}: sim_digest differs between passes")
        return report

    def measure(self, repeats: int, seconds: Optional[float]) -> dict:
        """One set: set-up-only starts, then untraced passes.

        With ``seconds``, passes repeat while the next one, predicted to
        last as long as the last, ends within ``seconds``; at least one
        pass always runs.
        """
        samples: Dict[str, List[float]] = {name: [] for name in SAMPLED}
        attempted, failed = self.attempted, len(self.failures)
        for _ in range(SETUP_SAMPLES):
            report = self.spawn("--setup-only")
            if report is not None:
                samples["setup_s"].append(report["setup_s"])
        start, passes = time.monotonic(), 0
        while True:
            began = time.monotonic()
            report = self.spawn()
            passes += 1
            if report is not None:
                report["requests_per_s"] = report["offered"] / report["wall_s"]
                for name in SAMPLED:
                    samples[name].append(report[name])
            now = time.monotonic()
            if seconds is None:
                if passes >= repeats:
                    break
            elif now - start + (now - began) > seconds:
                break
        return {
            "samples": samples,
            "sim_digest": self.digest,
            "attempted": self.attempted - attempted,
            "failed": len(self.failures) - failed,
        }

    def trace(self, untraced_wall: float) -> Optional[dict]:
        """One pass under cProfile: per-layer numbers and ``trace_overhead``."""
        report = self.spawn("--profile")
        if report is None or "layers" not in report:
            return None
        metrics = dict(report["layers"], **report["model"])
        metrics["trace_overhead"] = report["wall_s"] / untraced_wall
        return {"wall_s": report["wall_s"], "sim_digest": report["sim_digest"],
                "metrics": metrics}


def summarize(samples: Dict[str, List[float]], units: Dict[str, str]) -> Dict[str, dict]:
    out = {}
    for name, values in samples.items():
        if values:
            q1, median, q3 = quartiles(values)
            out[name] = {"median": median, "q1": q1, "q3": q3, "n": len(values),
                         "unit": units[name]}
    return out


def pooled(sets: List[dict], workload: str) -> Dict[str, List[float]]:
    """Every set's samples of ``workload``, concatenated per metric."""
    out: Dict[str, List[float]] = {}
    for one in sets:
        for name, values in one[workload]["samples"].items():
            out.setdefault(name, []).extend(values)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the simulator's host time per workload.",
    )
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced passes per workload per set (default 3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time-box each workload's passes instead of --repeats")
    parser.add_argument("--sets", type=int, default=1,
                        help="measure the whole suite this many times (default 1)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="add one cProfile'd pass per workload for per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small tier, 200-iteration fleet, 5 quick experiments")
    parser.add_argument("--out", help="write all samples and traced numbers as JSON")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.sets < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeats, --sets and --seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no simulator source under {SRC}", file=sys.stderr)
        return 2

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["host_speed"] = "x"
    names = args.workload or list(WORKLOADS)
    workloads = {name: Workload(name, args.seed, args.smoke) for name in names}

    sets: List[dict] = []
    for _ in range(args.sets):
        sets.append({name: w.measure(args.repeats, args.seconds) for name, w in workloads.items()})
    traced: Dict[str, dict] = {}
    if args.trace:
        for name, w in workloads.items():
            walls = pooled(sets, name)["wall_s"]
            result = w.trace(statistics.median(walls)) if walls else None
            if result is not None:
                traced[name] = result

    contract: Dict[str, dict] = {}
    prefix = len(names) > 1
    for name, w in workloads.items():
        summary = summarize(pooled(sets, name), units)
        for metric, s in summary.items():
            print(f"{name:26s} {metric:34s} {s['median']:.6g} {s['unit']}"
                  f"  [q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']}]")
        error_rate = len(w.failures) / w.attempted if w.attempted else 1.0
        print(f"{name:26s} {'error_rate':34s} {error_rate:.6g} fraction"
              f"  [{len(w.failures)} of {w.attempted} checks failed]")
        print(f"{name:26s} {'sim_digest':34s} {w.digest}")
        if args.trace:
            layer = traced.get(name, {}).get("metrics", {})
            for metric in spec["per_layer"]:
                if metric["name"] in layer:
                    print(f"{name:26s} {metric['name']:34s} "
                          f"{layer[metric['name']]:.6g} {metric['unit']}")
            values, wanted = layer, spec["per_layer"]
        else:
            values = {metric: s["median"] for metric, s in summary.items()}
            wanted = spec["end_to_end"]
        for metric in wanted:
            if metric["name"] in values:
                key = f"{name}/{metric['name']}" if prefix else metric["name"]
                contract[key] = {"value": values[metric["name"]], "unit": metric["unit"]}

    attempted = sum(w.attempted for w in workloads.values())
    failed = sum(len(w.failures) for w in workloads.values())
    expected = len(names) * len(spec["per_layer" if args.trace else "end_to_end"])
    if len(contract) != expected:
        failed += 1
        attempted += 1
        print(f"FAIL {expected - len(contract)} metrics missing", file=sys.stderr)

    if args.out:
        document = {
            "meta": {
                "python": platform.python_version(),
                "machine": platform.machine(),
                "nproc": os.cpu_count(),
                "seed": args.seed,
                "scale": "smoke" if args.smoke else "full",
                "repeats": args.repeats,
                "seconds": args.seconds,
                "probe_s": PROBE_S,
                "probe_exponent": PROBE_EXPONENT,
            },
            "sets": sets,
            "traced": traced,
        }
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": contract}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
