"""Differential oracle for the ATC range walker.

``DeviceAtc.translate_range`` and ``translate_range_partial`` walk a
range's tail pages in one loop, inlining the ATC, IOTLB and page-table
work of a page that does not fault.  The per-page loops they replaced
are kept here as the reference: each calls ``DeviceAtc.translate`` once
per page.  Every seeded schedule runs on two fresh ATC/IOMMU/page-table
stacks, one per implementation, and everything observable must agree:
return values, cache LRU order, counters, frame allocation and the
metrics registry.
"""

import contextlib
import functools
import random
from typing import Optional, Tuple

import pytest

from repro.dsa.atc import DeviceAtc
from repro.faults.inject import FaultInjector, injection
from repro.faults.plan import FaultPlan
from repro.mem.iommu import Iommu, IommuParams
from repro.mem.pagetable import PAGE_2M, PAGE_4K, PageTable
from repro.obs.metrics import MetricsRegistry

PASIDS = (1, 2)
#: Pages of address space a schedule touches, so ranges overlap and hit.
REGION_PAGES = 48
OPS = 80


def reference_range(atc: DeviceAtc, pasid: int, va: int, size: int) -> Tuple[float, int]:
    """The per-page ``translate_range`` loop the walker replaced."""
    if size <= 0:
        return 0.0, 0
    page = atc._page_size(pasid)
    critical, first_fault = atc.translate(pasid, va)
    faults = int(first_fault)
    cursor = (va // page + 1) * page
    while cursor < va + size:
        latency, faulted = atc.translate(pasid, cursor)
        if faulted:
            critical += latency
            faults += 1
        cursor += page
    return critical, faults


def reference_partial(
    atc: DeviceAtc, pasid: int, va: int, size: int
) -> Tuple[float, int, Optional[int]]:
    """The per-page ``translate_range_partial`` loop the walker replaced."""
    if size <= 0:
        return 0.0, 0, None
    page = atc._page_size(pasid)
    critical, first_fault = atc.translate(pasid, va, service_fault=False)
    if first_fault:
        return critical, 1, va
    cursor = (va // page + 1) * page
    while cursor < va + size:
        latency, faulted = atc.translate(pasid, cursor, service_fault=False)
        if faulted:
            return critical + latency, 1, cursor
        cursor += page
    return critical, 0, None


def _stack(seed: int):
    """A fresh ATC/IOMMU/page-table stack; equal seeds build equal stacks."""
    rng = random.Random(seed)
    registry = MetricsRegistry()
    iommu = Iommu(IommuParams(iotlb_entries=rng.choice((4, 16, 256))))
    iommu.attach_metrics(registry)
    for pasid in PASIDS:
        page = rng.choice((PAGE_4K, PAGE_2M))
        table = PageTable(page)
        for _ in range(rng.randint(0, 4)):  # prefaulted stretches
            start = rng.randrange(REGION_PAGES) * page
            table.map_range(start, rng.randint(1, 12) * page)
        iommu.attach(pasid, table)
    atc = DeviceAtc(iommu, entries=rng.choice((2, 8, 128)), metrics=registry)
    return atc, registry


def _schedule(seed: int, atc: DeviceAtc):
    """Ops drawn up front: ``(kind, pasid, va, size, touch)``."""
    rng = random.Random(seed * 7919 + 1)
    ops = []
    for _ in range(OPS):
        pasid = rng.choice(PASIDS)
        page = atc._page_size(pasid)
        roll = rng.random()
        if roll < 0.04:
            ops.append(("flush", pasid, 0, 0, False))
            continue
        if roll < 0.08:
            ops.append(("invalidate", pasid, 0, 0, False))
            continue
        va = rng.randrange(REGION_PAGES) * page
        if rng.random() < 0.6:
            va += rng.randrange(1, page)  # unaligned start
        shape = rng.random()
        if shape < 0.05:
            size = 0
        elif shape < 0.35:
            # End exactly on a page boundary.
            size = rng.randint(1, 6) * page - va % page
        elif shape < 0.65:
            size = rng.randint(1, 3 * page)
        else:
            # Longer than the smaller ATCs: the range evicts its own pages.
            size = rng.randint(3 * page, 24 * page)
        kind = "range" if rng.random() < 0.6 else "partial"
        # After a BOF=0 fault, software may touch the page and retry.
        ops.append((kind, pasid, va, size, rng.random() < 0.5))
    return ops


def _run(seed: int, walker: bool, injector: Optional[FaultInjector] = None):
    atc, registry = _stack(seed)
    if walker:
        walk, partial_walk = atc.translate_range, atc.translate_range_partial
    else:
        walk = functools.partial(reference_range, atc)
        partial_walk = functools.partial(reference_partial, atc)
    results = []
    with injection(injector) if injector is not None else contextlib.nullcontext():
        for kind, pasid, va, size, touch in _schedule(seed, atc):
            if kind == "flush":
                atc.flush()
            elif kind == "invalidate":
                atc.invalidate_pasid(pasid)
            elif kind == "range":
                results.append(walk(pasid, va, size))
            else:
                result = partial_walk(pasid, va, size)
                results.append(result)
                if result[2] is not None and touch:
                    atc.iommu._tables[pasid].map_range(result[2], 1)
    return results, _state(atc, registry)


def _state(atc: DeviceAtc, registry: MetricsRegistry) -> dict:
    iommu = atc.iommu
    return {
        "atc_order": list(atc._cache),
        "atc_counts": (atc.hits, atc.misses),
        "iotlb": {
            pasid: (list(tlb._cache), tlb.hits, tlb.misses)
            for pasid, tlb in iommu._iotlbs.items()
        },
        "iommu_counts": (iommu.translations, iommu.page_faults),
        "tables": {
            pasid: (table.minor_faults, list(table._mapping.items()))
            for pasid, table in iommu._tables.items()
        },
        "metrics": list(registry.snapshot().items()),
    }


@pytest.mark.parametrize("seed", range(32))
def test_walker_matches_per_page_reference(seed):
    walked, walked_state = _run(seed, walker=True)
    expected, expected_state = _run(seed, walker=False)
    assert walked == expected
    assert walked_state == expected_state


def test_schedules_cover_the_cases():
    """The seeds above exercise every case the walker must get right."""
    seen = set()
    for seed in range(32):
        atc, _registry = _stack(seed)
        ops = _schedule(seed, atc)
        results, state = _run(seed, walker=True)
        for pasid in PASIDS:
            seen.add(("page", atc._page_size(pasid)))
        seen.add(("pasids", len({op[1] for op in ops})))
        capacity = atc.iommu.params.iotlb_entries
        if any(
            len(order) == capacity and misses > capacity
            for order, _hits, misses in state["iotlb"].values()
        ):
            seen.add("iotlb eviction")
        ranges = [op for op in ops if op[0] in ("range", "partial")]
        results = iter(results)
        for kind, pasid, va, size, _touch in ranges:
            page = atc._page_size(pasid)
            result = next(results)
            if size > 0 and (va + size - 1) // page - va // page + 1 > atc.entries:
                seen.add("range longer than ATC")
            if va % page:
                seen.add("unaligned va")
            if size > 0 and (va + size) % page == 0:
                seen.add("ends on page boundary")
            if result[1]:
                seen.add(f"{kind} fault")
            elif size > page:
                seen.add(f"{kind} fault-free tail")
        if state["atc_counts"][0]:
            seen.add("atc hits")
    assert {
        ("page", PAGE_4K), ("page", PAGE_2M), ("pasids", 2), "iotlb eviction",
        "range longer than ATC", "unaligned va", "ends on page boundary",
        "range fault", "partial fault", "range fault-free tail",
        "partial fault-free tail", "atc hits",
    } <= seen


FAULT_PLAN = FaultPlan(
    seed=11,
    page_fault_rate=0.03,
    major_fault_fraction=0.25,
    atc_shootdown_every=17,
    scripted_vas=(5 * PAGE_4K + 123, 9 * PAGE_2M, 30 * PAGE_4K, 40 * PAGE_2M + 7),
)


def _injector_state(injector: FaultInjector) -> dict:
    return {
        "translations": injector._translations,
        "shootdowns": injector.injected_shootdowns,
        "scripted_left": list(injector._scripted),
        "page_faults": injector.injected_page_faults,
        "major_faults": injector.injected_major_faults,
        "faulted_pages": sorted(injector._faulted_pages),
        "next_draw": float(injector._page_rng.random()),
    }


@pytest.mark.parametrize("seed", range(8))
def test_injector_path_matches_reference(seed):
    walk_injector, ref_injector = FaultInjector(FAULT_PLAN), FaultInjector(FAULT_PLAN)
    walked, walked_state = _run(seed, walker=True, injector=walk_injector)
    expected, expected_state = _run(seed, walker=False, injector=ref_injector)
    assert walked == expected
    assert walked_state == expected_state
    assert _injector_state(walk_injector) == _injector_state(ref_injector)


def test_injector_schedules_fire():
    """The injector test above sees injected faults and shoot-downs."""
    injector = FaultInjector(FAULT_PLAN)
    for seed in range(8):
        _run(seed, walker=True, injector=injector)
    assert injector.injected_page_faults > len(FAULT_PLAN.scripted_vas)
    assert injector.injected_major_faults > 0
    assert injector.injected_shootdowns > 0
    assert len(injector._scripted) < len(FAULT_PLAN.scripted_vas)


def test_resident_tail_takes_no_per_page_call():
    """A fault-free range costs one ``translate`` call, for its first page."""
    iommu = Iommu()
    table = PageTable(PAGE_4K)
    table.map_range(0, 64 * PAGE_4K)
    iommu.attach(1, table)
    atc = DeviceAtc(iommu, entries=8)
    calls = []
    exact = atc.translate
    atc.translate = lambda *args, **kw: calls.append(args) or exact(*args, **kw)
    assert atc.translate_range(1, 100, 16 * PAGE_4K) == (atc.hit_latency + 40.0 + 80.0, 0)
    assert len(calls) == 1
    assert iommu.translations == 17 and atc.misses == 17
