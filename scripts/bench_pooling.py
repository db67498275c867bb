#!/usr/bin/env python
"""Object-pooling microbenchmark: descriptor reuse and slotted footprint.

Two measurements of the allocation-churn work:

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

    PYTHONPATH=src python scripts/bench_pooling.py --out BENCH_pooling.json --require
"""

from __future__ import annotations

import sys
import tracemalloc

from _bench_common import base_parser, best_of, gate_exit, write_json
from repro.dsa.descriptor import DescriptorPool, WorkDescriptor
from repro.dsa.opcodes import Opcode

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


def main(argv=None):
    parser = base_parser(__doc__.splitlines()[0], "BENCH_pooling.json", repeats_default=3)
    args = parser.parse_args(argv)

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
            "benchmark": "repro object pooling",
            "repeats": args.repeats,
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
