#!/usr/bin/env python
"""Calendar backend + pooling microbenchmark: wheel vs heap at 1M pending.

Five million-event workloads run the *same* installed engine under
both calendar backends (``Environment(calendar="heap")`` vs
``"wheel"``), so the comparison isolates the data structure, not
engine drift.  The drain workloads arm their timers in the untimed
setup phase and time ``env.run()`` only — that is the "events/sec at
1M pending" the gate is about.  ``arm_1m`` reports the arming side on
its own, and it is the wheel's honest weak spot: bulk-arming
pre-sorted times is ``heappush``'s best case (a C call that sifts
zero levels) while a wheel push pays Python-level slot bookkeeping,
so a pure preload-then-drain pass is roughly break-even and the wheel
earns its keep where pops dominate or interleave with pushes
(``steady_state_1m``, the serving shape):

* ``tie_drain_1m``     — 1M timers at 62.5k distinct instants (QD-16
  completion waves, the DSA steady state).  **Gated**: the wheel's
  bucket drain must beat the heap's sift-down by ``--target-drain``
  (default 3x) in events/sec.
* ``steady_state_1m``  — 1M preloaded timers, each completion re-arms
  one more (open-loop serving shape): the timed region interleaves 2M
  pops with 1M pushes at ~1M pending.
* ``cancel_churn_1m``  — 1M armed, every other one cancelled before it
  fires; exercises lazy discard + compaction under both backends.
* ``uniform_drain_1m`` — 1M unique instants.  Reported, not gated:
  with no ties every pop pays a full resort either way and the wheel's
  per-bucket ``insort`` loses part of its edge.
* ``arm_1m``           — the arming phase alone: 1M ``timeout()``
  calls, no drain.  Reported, not gated (expected ~1x).

``small_closed_loop`` then runs a tiny closed-loop chain (the default
experiment shape) under ``--calendar auto`` and ``wheel``; **gated**:
auto — which stays on the heap below the promotion threshold — must
keep at least ``--target-small`` (default 0.9x) of heap throughput.

The pooling section measures the allocation-churn work:

* ``descriptor_pooling`` — 200k ``clone_range`` churns through a
  ``DescriptorPool`` vs fresh clones; **gated**: the pool's reuse
  counter must show >90% of the clones eliminated.
* ``slots_footprint``    — tracemalloc peak for 100k live descriptors
  (four objects each) against a pre-slots, ``__dict__``-backed replica;
  **gated**: the slotted classes must trace below 0.9x the replica.

tracemalloc peaks are reported for the churn loops too; they bound the
*resident* cost (the pool must not grow the live set), while the
construction counters carry the churn-reduction claim — CPython frees
refcount-zero garbage immediately, so churn never shows in a peak.

    PYTHONPATH=src python scripts/bench_calendar.py --out BENCH_calendar.json
"""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np

from _bench_common import base_parser, best_of, gate_exit, write_json
from repro.dsa.descriptor import DescriptorPool, WorkDescriptor
from repro.dsa.opcodes import Opcode
from repro.sim.engine import Environment

# ---------------------------------------------------------------------------
# Million-event calendar workloads (same engine, different backend).
# ---------------------------------------------------------------------------

N_TIMERS = 1_000_000
WAVE_QD = 16


def wave_times(n=N_TIMERS, seed=7, qd=WAVE_QD):
    """n completion instants in QD-sized ties (DSA completion waves)."""
    rng = np.random.default_rng(seed)
    return np.repeat(np.cumsum(rng.exponential(float(qd), n // qd)), qd).tolist()


def uniform_times(n=N_TIMERS, seed=11):
    """n unique instants, pre-sorted (the heap's best-case arming)."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0, n)).tolist()


def preload_drain(times):
    """Arm every timer (setup), then time running the calendar dry."""

    def setup(backend):
        env = Environment(calendar=backend)
        timeout = env.timeout
        for t in times:
            timeout(t)
        return env

    return setup, len(times)


def steady_state(times, gaps):
    """Preload ``times`` (setup); the timed drain re-arms one timer per
    completion while ``gaps`` lasts, holding pending near len(times)."""

    def setup(backend):
        env = Environment(calendar=backend)
        timeout = env.timeout
        state = iter(gaps)

        def rearm(event):
            gap = next(state, None)
            if gap is not None:
                timeout(gap).callbacks.append(rearm)

        for t in times:
            timeout(t).callbacks.append(rearm)
        return env

    return setup, len(times) + len(gaps)


def cancel_churn(times):
    """Arm everything and cancel every other timer (setup); the timed
    drain pays one lazy discard per cancelled entry."""

    def setup(backend):
        env = Environment(calendar=backend)
        timeout = env.timeout
        armed = [timeout(t) for t in times]
        for ev in armed[::2]:
            ev.cancel()
        return env

    return setup, len(times)


def arm_only(times):
    """The arming phase alone: the timed region is 1M timeout() calls."""

    def setup(backend):
        return Environment(calendar=backend)

    def run(env):
        timeout = env.timeout
        for t in times:
            timeout(t)
        return len(times)

    return setup, run


def small_closed_loop(n_procs=20, n_yields=2000):
    """The default experiment shape: low pending count, long chains."""

    def run(env):
        def proc(delay):
            for _ in range(n_yields):
                yield env.timeout(delay)

        for i in range(n_procs):
            env.process(proc(1.0 + i * 0.01))
        env.run()
        return n_procs * (n_yields + 1)

    return run


def measure(backend, spec, repeats):
    """Time one (backend, workload) pair; arming lives in setup."""
    setup, tail = spec
    if callable(tail):  # arm_only: the timed region is the arming loop
        run = tail
    else:
        def run(env, _events=tail):
            env.run()
            return _events

    best = best_of(repeats, run, setup=lambda: setup(backend))
    return best.rate(), best.seconds


def measure_closed(backend, run, repeats):
    best = best_of(repeats, run, setup=lambda: Environment(calendar=backend))
    return best.rate(), best.seconds


# ---------------------------------------------------------------------------
# Pooling: construction counts + tracemalloc footprints.
# ---------------------------------------------------------------------------

CHURN_N = 200_000


def descriptor_pooling(repeats):
    """200k clone_range churns: DescriptorPool reuse vs fresh clones."""
    proto = WorkDescriptor(opcode=Opcode.MEMMOVE, src=1 << 20, dst=2 << 20, size=4096)
    out = {}
    for label, make_pool in (("unpooled", lambda: None), ("pooled", DescriptorPool)):

        def churn(pool):
            for _ in range(CHURN_N):
                clone = proto.clone_range(0, proto.size, pool=pool)
                if pool is not None:
                    pool.release(clone)
            return CHURN_N

        pool = make_pool()
        tracemalloc.start()
        try:
            churn(pool)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        allocs = CHURN_N - (pool.reuses if pool is not None else 0)
        best = best_of(repeats, churn, setup=make_pool)
        out[label] = {
            "descriptor_allocs": allocs,
            "tracemalloc_peak_kib": round(peak / 1024, 1),
            "clones_per_sec": round(best.rate()),
        }
    return out


class _DictCompletion:
    def __init__(self):
        self.status = 0
        self.bytes_completed = 0
        self.result = 0
        self.fault_address = None


class _DictTimestamps:
    def __init__(self):
        self.allocated = None
        self.prepared = None
        self.submitted = None
        self.dispatched = None
        self.completed = None


class _DictDescriptor:
    """Pre-slots replica: same fields, per-instance ``__dict__``."""

    def __init__(self, opcode, size):
        self.opcode = opcode
        self.pasid = 0
        self.flags = 0
        self.src = 0
        self.src2 = 0
        self.dst = 0
        self.dst2 = 0
        self.size = size
        self.pattern = 0
        self.pattern2 = 0
        self.pattern_bytes = 8
        self.dif = None
        self.dif_new = None
        self.delta_max_size = 1 << 17
        self.delta_size = 0
        self.completion = _DictCompletion()
        self.times = _DictTimestamps()
        self.completion_event = None
        self.dispatch_weight = 1.0
        self.trace_track = -1


def slots_footprint(n=100_000):
    """tracemalloc peak of n live descriptors, slotted vs dict-backed."""
    peaks = {}
    for label, factory in (
        ("slots", lambda: WorkDescriptor(opcode=Opcode.MEMMOVE, size=4096)),
        ("dict", lambda: _DictDescriptor(Opcode.MEMMOVE, 4096)),
    ):
        tracemalloc.start()
        try:
            _live = [factory() for _ in range(n)]
            peaks[label] = tracemalloc.get_traced_memory()[1]
        finally:
            del _live
            tracemalloc.stop()
    return {
        "descriptors": n,
        "slots_peak_kib": round(peaks["slots"] / 1024, 1),
        "dict_peak_kib": round(peaks["dict"] / 1024, 1),
        "ratio": round(peaks["slots"] / peaks["dict"], 3),
    }


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = base_parser(__doc__.splitlines()[0], "BENCH_calendar.json", repeats_default=3)
    parser.add_argument(
        "--target-drain", type=float, default=3.0,
        help="required wheel/heap speedup on the tie-heavy 1M drain",
    )
    parser.add_argument(
        "--target-small", type=float, default=0.9,
        help="minimum auto/heap throughput ratio on small closed loops",
    )
    args = parser.parse_args(argv)

    waves = wave_times()
    rng = np.random.default_rng(13)
    workloads = {
        "tie_drain_1m": preload_drain(waves),
        "steady_state_1m": steady_state(
            waves, rng.exponential(float(WAVE_QD), N_TIMERS).tolist()
        ),
        "cancel_churn_1m": cancel_churn(waves),
        "uniform_drain_1m": preload_drain(uniform_times()),
        "arm_1m": arm_only(waves),
    }

    results = {}
    for name, spec in workloads.items():
        heap_eps, heap_t = measure("heap", spec, args.repeats)
        wheel_eps, wheel_t = measure("wheel", spec, args.repeats)
        speedup = wheel_eps / heap_eps
        results[name] = {
            "heap_events_per_sec": round(heap_eps),
            "wheel_events_per_sec": round(wheel_eps),
            "heap_best_s": round(heap_t, 4),
            "wheel_best_s": round(wheel_t, 4),
            "speedup": round(speedup, 3),
        }
        print(
            f"{name:16s}  heap {heap_eps/1e6:5.2f} M ev/s   "
            f"wheel {wheel_eps/1e6:5.2f} M ev/s   x{speedup:.2f}"
        )

    small = small_closed_loop()
    heap_eps, _ = measure_closed("heap", small, max(args.repeats, 5))
    auto_eps, _ = measure_closed("auto", small, max(args.repeats, 5))
    wheel_eps, _ = measure_closed("wheel", small, max(args.repeats, 5))
    small_ratio = auto_eps / heap_eps
    results["small_closed_loop"] = {
        "heap_events_per_sec": round(heap_eps),
        "auto_events_per_sec": round(auto_eps),
        "wheel_events_per_sec": round(wheel_eps),
        "auto_vs_heap": round(small_ratio, 3),
        "wheel_vs_heap": round(wheel_eps / heap_eps, 3),
    }
    print(
        f"small_closed_loop auto x{small_ratio:.2f} vs heap "
        f"(wheel x{wheel_eps / heap_eps:.2f})"
    )

    pooling = {
        "descriptor": descriptor_pooling(args.repeats),
        "slots_footprint": slots_footprint(),
    }
    d_un = pooling["descriptor"]["unpooled"]["descriptor_allocs"]
    d_po = pooling["descriptor"]["pooled"]["descriptor_allocs"]
    print(
        f"pooling: descriptor allocs {d_un} -> {d_po}, slots footprint x"
        f"{pooling['slots_footprint']['ratio']:.2f} of dict"
    )

    gates = {
        "tie_drain_1m_speedup": {
            "value": results["tie_drain_1m"]["speedup"],
            "target": args.target_drain,
            "pass": results["tie_drain_1m"]["speedup"] >= args.target_drain,
        },
        "small_auto_no_harm": {
            "value": round(small_ratio, 3),
            "target": args.target_small,
            "pass": small_ratio >= args.target_small,
        },
        "descriptor_alloc_reduction": {
            "value": d_po,
            "target": d_un // 10,
            "pass": d_po < d_un / 10,
        },
        "slots_footprint_ratio": {
            "value": pooling["slots_footprint"]["ratio"],
            "target": 0.9,
            "pass": pooling["slots_footprint"]["ratio"] < 0.9,
        },
    }
    ok = all(g["pass"] for g in gates.values())
    write_json(
        args.out,
        {
            "benchmark": "repro.sim calendar backends + object pooling",
            "repeats": args.repeats,
            "pending_timers": N_TIMERS,
            "workloads": results,
            "pooling": pooling,
            "gates": gates,
            "pass": ok,
        },
    )
    status = "PASS" if ok else "FAIL"
    print(f"gates {status} -> {args.out}")
    return gate_exit(ok, args.require)


if __name__ == "__main__":
    sys.exit(main())
