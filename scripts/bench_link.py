#!/usr/bin/env python
"""Fair-share link microbenchmark: legacy O(n) link vs virtual-time link.

Measures transfer throughput through ``repro.mem.link.FairShareLink``
on three workloads that isolate the flow-churn hot path every
bandwidth-bound experiment funnels through (Fig 2 sweeps, Fig 6 memory
configs, Fig 10 multi-device, the QD32 Table 1 rows):

* ``high_qd32`` / ``high_qd64`` — one link at queue depth 32/64: each
  completion immediately submits the next transfer, so every event is a
  join + a leave on a crowded link.  This is where the legacy
  implementation paid O(n) rate recomputation per change and left a
  stale version-checked timer behind per reschedule (O(n^2) churn per
  drain).
* ``weighted_qos``    — three §3.4 traffic classes (weights 1:2:4)
  contending on one link.
* ``multi_link``      — a DRAM read + DRAM write + UPI + CXL link mix
  where each logical copy holds flows on two links at once (the
  ``MemorySystem.read_flow``/``write_flow`` fan-out).

"Before" numbers come from a verbatim copy of the pre-virtual-time link
(commit 9bbaa3c) embedded below as ``LegacyFairShareLink``, run on the
*same* engine — so the comparison isolates the link algorithm, same
interpreter, same machine, back to back.  Both implementations produce
identical completion times on these workloads (the randomized
differential test in ``tests/mem/test_link.py`` pins this), so equal
logical work is compared.  Results are written as JSON (default
``BENCH_link.json``)::

    PYTHONPATH=src python scripts/bench_link.py --out BENCH_link.json

Methodology: each (impl, workload) pair runs ``--repeats`` times and
the best run wins (minimum wall time).  The speedup metric is
transfers/second — completed logical transfers over wall time — and the
JSON also records raw calendar entries scheduled (``events_scheduled``)
so the stale-timer reduction is visible, plus the new implementation's
``cancelled``/``stale_swept`` counters.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from _bench_common import base_parser, best_of, gate_exit, geomean, write_json
from repro.mem.link import FairShareLink
from repro.sim.engine import Environment, Event

# ---------------------------------------------------------------------------
# Legacy link: verbatim src/repro/mem/link.py @ 9bbaa3c (pre virtual-time).
# O(n) _advance + _rates per join/leave, version-checked wake timers that
# are never cancelled.  bytes_completed counted at submit (the bug fixed
# in this PR) does not affect timing.
# ---------------------------------------------------------------------------

_EPSILON = 1e-6


class _LegacyFlow:
    __slots__ = ("remaining", "event", "weight")

    def __init__(self, nbytes: float, event: Event, weight: float = 1.0):
        self.remaining = float(nbytes)
        self.event = event
        self.weight = weight


class LegacyFairShareLink:
    def __init__(
        self,
        env: Environment,
        bandwidth: float,
        name: str = "",
        per_flow_cap: Optional[float] = None,
    ):
        self.env = env
        self.bandwidth = float(bandwidth)
        self.name = name
        self.per_flow_cap = per_flow_cap
        self._flows: List[_LegacyFlow] = []
        self._last_update = env.now
        self._timer_version = 0
        self.bytes_completed = 0.0

    def transfer(self, nbytes: float, weight: float = 1.0) -> Event:
        event = Event(self.env)
        if nbytes == 0:
            event.succeed()
            return event
        self._advance()
        self._flows.append(_LegacyFlow(nbytes, event, weight=weight))
        self.bytes_completed += nbytes
        self._reschedule()
        return event

    def _advance(self) -> None:
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._flows:
            return
        for flow, rate in self._rates():
            flow.remaining -= rate * elapsed

    def _rates(self):
        total_weight = sum(flow.weight for flow in self._flows)
        pairs = []
        for flow in self._flows:
            rate = self.bandwidth * flow.weight / total_weight
            if self.per_flow_cap is not None:
                rate = min(rate, self.per_flow_cap)
            pairs.append((flow, rate))
        return pairs

    def _reschedule(self) -> None:
        still_active: List[_LegacyFlow] = []
        for flow in self._flows:
            if flow.remaining <= _EPSILON:
                flow.event.succeed()
            else:
                still_active.append(flow)
        self._flows = still_active
        self._timer_version += 1
        if not self._flows:
            return
        version = self._timer_version
        next_done = min(flow.remaining / rate for flow, rate in self._rates())

        def _wake(_event: Event) -> None:
            if version == self._timer_version:
                self._advance()
                self._reschedule()

        timer = self.env.timeout(next_done)
        timer.callbacks.append(_wake)


# ---------------------------------------------------------------------------
# Workloads — written against the surface both links share
# (link.transfer(nbytes, weight=...)).
# ---------------------------------------------------------------------------


def _sizes(n: int, base: float = 256.0, spread: int = 4093) -> List[float]:
    """Deterministic pseudo-random transfer sizes (no RNG dependency)."""
    return [base + float((i * 7919) % spread) for i in range(n)]


def high_qd(env, link_cls, qd=32, total=6400):
    """Queue-depth-QD closed loop on one link: the churn hot path."""
    link = link_cls(env, bandwidth=64.0)
    sizes = _sizes(total)
    done = [0]

    def submitter(worker: int):
        for i in range(worker, total, qd):
            yield link.transfer(sizes[i])
            done[0] += 1

    for worker in range(qd):
        env.process(submitter(worker))
    env.run()
    assert done[0] == total
    return total


def high_qd32(env, link_cls):
    return high_qd(env, link_cls, qd=32)


def high_qd64(env, link_cls):
    return high_qd(env, link_cls, qd=64)


def weighted_qos(env, link_cls, qd=48, total=4800):
    """Three traffic classes (weights 1:2:4) on one contended link."""
    link = link_cls(env, bandwidth=96.0)
    sizes = _sizes(total, base=512.0)
    done = [0]

    def submitter(worker: int, weight: float):
        for i in range(worker, total, qd):
            yield link.transfer(sizes[i], weight=weight)
            done[0] += 1

    for worker in range(qd):
        env.process(submitter(worker, (1.0, 2.0, 4.0)[worker % 3]))
    env.run()
    assert done[0] == total
    return total


def multi_link(env, link_cls, workers=32, total=4800):
    """DRAM+UPI+CXL composition: each copy holds flows on two links."""
    dram_rd = link_cls(env, bandwidth=100.0, per_flow_cap=30.0)
    dram_wr = link_cls(env, bandwidth=45.0, per_flow_cap=30.0)
    upi = link_cls(env, bandwidth=60.0)
    cxl = link_cls(env, bandwidth=35.0)
    routes = [(dram_rd, dram_wr), (dram_rd, upi), (upi, dram_wr), (dram_rd, cxl)]
    sizes = _sizes(total, base=384.0)
    done = [0]

    def submitter(worker: int):
        for i in range(worker, total, workers):
            first, second = routes[i % len(routes)]
            yield env.all_of([first.transfer(sizes[i]), second.transfer(sizes[i])])
            done[0] += 1

    for worker in range(workers):
        env.process(submitter(worker))
    env.run()
    assert done[0] == total
    return total


WORKLOADS = {
    "high_qd32": high_qd32,
    "high_qd64": high_qd64,
    "weighted_qos": weighted_qos,
    "multi_link": multi_link,
}


def measure(link_cls, workload, repeats):
    best = best_of(repeats, lambda env: workload(env, link_cls), setup=Environment)
    env = best.context  # stats harvested from the exact run reported
    return (
        best.rate(),
        best.value,
        best.seconds,
        env._seq,  # calendar entries scheduled (incl. stale timers)
        env.cancelled_events,
        env.stale_timers,
    )


def main(argv=None):
    parser = base_parser(__doc__.splitlines()[0], "BENCH_link.json")
    parser.add_argument(
        "--target",
        type=float,
        default=2.0,
        help="soft speedup target recorded in the JSON 'pass' field",
    )
    parser.add_argument(
        "--min",
        dest="min_gate",
        type=float,
        default=1.0,
        help="hard regression gate checked by --require",
    )
    args = parser.parse_args(argv)

    results = {}
    speedups = []
    for name, workload in WORKLOADS.items():
        before_tps, transfers, before_t, before_ev, _, _ = measure(
            LegacyFairShareLink, workload, args.repeats
        )
        after_tps, _, after_t, after_ev, cancelled, stale = measure(
            FairShareLink, workload, args.repeats
        )
        speedup = after_tps / before_tps
        speedups.append(speedup)
        results[name] = {
            "transfers": transfers,
            "before_transfers_per_sec": round(before_tps),
            "after_transfers_per_sec": round(after_tps),
            "before_best_s": round(before_t, 4),
            "after_best_s": round(after_t, 4),
            "before_events_scheduled": before_ev,
            "after_events_scheduled": after_ev,
            "after_cancelled_events": cancelled,
            "after_stale_swept": stale,
            "speedup": round(speedup, 3),
        }
        print(
            f"{name:13s}  before {before_tps/1e3:7.1f} k xfer/s ({before_ev} ev)   "
            f"after {after_tps/1e3:7.1f} k xfer/s ({after_ev} ev)   x{speedup:.2f}"
        )

    overall = geomean(speedups)
    write_json(
        args.out,
        {
            "benchmark": "repro.mem.link FairShareLink (virtual time vs legacy)",
            "repeats": args.repeats,
            "workloads": results,
            "overall_speedup_geomean": round(overall, 3),
            "target": args.target,
            "pass": overall >= args.target,
            "min_gate": args.min_gate,
        },
    )
    print(
        f"overall geomean x{overall:.2f} (soft target x{args.target}, "
        f"gate x{args.min_gate}) -> {args.out}"
    )
    return gate_exit(overall >= args.min_gate, args.require)


if __name__ == "__main__":
    sys.exit(main())
