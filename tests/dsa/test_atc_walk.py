"""Differential oracle for the ATC range walker.

``DeviceAtc.translate_range`` and ``translate_range_partial`` walk a
range a stretch of cached or uncached pages at a time, on run-length
LRUs (``repro.mem.runlru``), inlining the ATC, IOTLB and page-table
work of a page that does not fault.  The reference kept here is the
per-page model they replaced: an ``OrderedDict`` LRU ATC whose
``translate`` runs once per page, over an IOMMU whose per-PASID IOTLBs
are ``OrderedDict`` LRUs too.  Every seeded schedule runs on two fresh
ATC/IOMMU/page-table stacks, the real one and the reference, and
everything observable must agree: return values, cache LRU order,
counters, frame allocation and the metrics registry.
"""

import contextlib
import functools
import random
from collections import OrderedDict
from typing import Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.dsa.atc import DeviceAtc
from repro.faults.inject import FaultInjector, active_injector, injection
from repro.faults.plan import FaultPlan
from repro.mem.iommu import Iommu, IommuParams
from repro.mem.pagetable import PAGE_2M, PAGE_4K, PageTable
from repro.mem.runlru import RunLru
from repro.obs.metrics import MetricsRegistry

PASIDS = (1, 2)
#: Pages of address space a schedule touches, so ranges overlap and hit.
REGION_PAGES = 48
OPS = 80


class ReferenceTlb:
    """The per-page ``OrderedDict`` IOTLB, frozen as the oracle's model."""

    def __init__(self, entries: int, page_size: int):
        self.entries = entries
        self.page_size = page_size
        self._cache: "OrderedDict[int, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, va: int) -> bool:
        vpn = va // self.page_size
        if vpn in self._cache:
            self._cache.move_to_end(vpn)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, va: int) -> None:
        vpn = va // self.page_size
        if vpn in self._cache:
            self._cache.move_to_end(vpn)
            return
        if len(self._cache) >= self.entries:
            self._cache.popitem(last=False)
        self._cache[vpn] = True


class ReferenceAtc:
    """The per-page ``OrderedDict`` ATC, frozen as the oracle's model."""

    def __init__(self, iommu: Iommu, entries: int, metrics: MetricsRegistry):
        self.iommu = iommu
        self.entries = entries
        self.hit_latency = 8.0
        self.name = "atc"
        self._cache: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._metrics = metrics
        self._m_hits = metrics.counter("atc.hits")
        self._m_misses = metrics.counter("atc.misses")

    def _page_size(self, pasid: int) -> int:
        return self.iommu._tables[pasid].page_size

    def _count(self, suffix: str) -> None:
        self._metrics.counter(f"{self.name}.{suffix}").add()

    def translate(
        self, pasid: int, va: int, service_fault: bool = True
    ) -> Tuple[float, bool]:
        injector = active_injector()
        if injector is not None and injector.shootdown_due():
            self.flush()
            self._count("shootdowns")
        page = self._page_size(pasid)
        key = (pasid, va // page)
        if injector is not None:
            kind = injector.page_fault(pasid, va, page)
            if kind is not None:
                self._cache.pop(key, None)
                self.misses += 1
                self._m_misses.add()
                self._count("injected_faults")
                walk = (
                    self.iommu.params.iotlb_hit_latency
                    + self.iommu.params.walk_overhead
                    + self.iommu._tables[pasid].walk_latency
                )
                if not service_fault:
                    return self.hit_latency + walk, True
                latency = walk + injector.service_latency_ns(kind)
                if len(self._cache) >= self.entries:
                    self._cache.popitem(last=False)
                self._cache[key] = True
                return self.hit_latency + latency, True
        if key in self._cache:
            self._cache.move_to_end(key)
            self.hits += 1
            self._m_hits.add()
            return self.hit_latency, False
        self.misses += 1
        self._m_misses.add()
        latency, faulted = self.iommu.translate(pasid, va, service_fault)
        if faulted and not service_fault:
            return self.hit_latency + latency, True
        if len(self._cache) >= self.entries:
            self._cache.popitem(last=False)
        self._cache[key] = True
        return self.hit_latency + latency, faulted

    def flush(self) -> None:
        self._cache.clear()

    def invalidate_pasid(self, pasid: int) -> None:
        for key in [k for k in self._cache if k[0] == pasid]:
            del self._cache[key]


def reference_range(atc: ReferenceAtc, pasid: int, va: int, size: int) -> Tuple[float, int]:
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
    atc: ReferenceAtc, pasid: int, va: int, size: int
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


def _stack(seed: int, reference: bool = False):
    """A fresh ATC/IOMMU/page-table stack; equal seeds build equal stacks.

    ``reference`` swaps in the ``OrderedDict`` ATC and IOTLBs."""
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
        if reference:
            iommu._iotlbs[pasid] = ReferenceTlb(iommu.params.iotlb_entries, page)
    entries = rng.choice((2, 8, 128))
    if reference:
        return ReferenceAtc(iommu, entries, registry), registry
    return DeviceAtc(iommu, entries=entries, metrics=registry), registry


def _schedule(seed: int, atc):
    """Ops drawn up front: ``(kind, pasid, va, size, flag)``.

    ``flag`` is ``service_fault`` for a single-page ``translate``; for a
    BOF=0 range it says whether software touches a faulting page."""
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
        if roll < 0.2:
            # One page through translate(), as BOF=1 or BOF=0.
            ops.append(("single", pasid, va, 0, rng.random() < 0.5))
            continue
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
    atc, registry = _stack(seed, reference=not walker)
    if walker:
        walk, partial_walk = atc.translate_range, atc.translate_range_partial
    else:
        walk = functools.partial(reference_range, atc)
        partial_walk = functools.partial(reference_partial, atc)
    results = []
    with injection(injector) if injector is not None else contextlib.nullcontext():
        for kind, pasid, va, size, flag in _schedule(seed, atc):
            if kind == "flush":
                atc.flush()
            elif kind == "invalidate":
                atc.invalidate_pasid(pasid)
            elif kind == "single":
                results.append(atc.translate(pasid, va, service_fault=flag))
            elif kind == "range":
                results.append(walk(pasid, va, size))
            else:
                result = partial_walk(pasid, va, size)
                results.append(result)
                if result[2] is not None and flag:
                    atc.iommu._tables[pasid].map_range(result[2], 1)
    return results, _state(atc, registry)


def _state(atc, registry: MetricsRegistry) -> dict:
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


def _record_shapes(monkeypatch, seen: set) -> None:
    """Record which run-LRU cases and walker outcomes a run goes through."""
    refresh, trim, insert = RunLru._refresh, RunLru._trim, RunLru.insert

    def recording_refresh(self, run, i, vpn, stop, starts, runs):
        mru = self._root.prev
        if stop < run.end:
            seen.add("prefix re-key" if vpn == run.start else "middle split")
        elif run is mru:
            seen.add("MRU suffix refresh")
        elif vpn > run.start:
            seen.add("suffix split")
        elif mru.end == run.start and mru.ns == run.ns:
            seen.add("whole-run fold into MRU")
        else:
            seen.add("whole-run move")
        refresh(self, run, i, vpn, stop, starts, runs)

    def recording_trim(self):
        lru = self._root.next
        if self._size - self.capacity >= lru.end - lru.start:
            seen.add("LRU-run trim")
        else:
            seen.add("LRU prefix trim")
        trim(self)

    def recording_insert(self, ns, vpn, end):
        mru = self._root.prev
        if mru.end == vpn and mru.ns == ns:
            seen.add("tail merge")
        insert(self, ns, vpn, end)

    monkeypatch.setattr(RunLru, "_refresh", recording_refresh)
    monkeypatch.setattr(RunLru, "_trim", recording_trim)
    monkeypatch.setattr(RunLru, "insert", recording_insert)

    def watching(method):
        # A page cached when the walk starts that still misses was
        # evicted by an insert earlier in the same walk.
        def walk(self, pasid, va, size):
            page = self._page_size(pasid)
            before = {vpn for ns, vpn in self._cache if ns == pasid}
            hits = self.hits
            result = method(self, pasid, va, size)
            last = (va + size - 1) // page
            if len(result) == 3 and result[2] is not None:
                last = result[2] // page - 1
            cached = len(before & set(range(va // page, last + 1)))
            if self.hits - hits < cached:
                seen.add("eviction of the next hit")
            return result

        return walk

    for name in ("translate_range", "translate_range_partial"):
        monkeypatch.setattr(DeviceAtc, name, watching(getattr(DeviceAtc, name)))


def test_schedules_cover_the_cases(monkeypatch):
    """The seeds above exercise every case the walker must get right."""
    seen = set()
    _record_shapes(monkeypatch, seen)
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
        translated = [op for op in ops if op[0] in ("single", "range", "partial")]
        for (kind, pasid, va, size, flag), result in zip(translated, results):
            page = atc._page_size(pasid)
            if kind == "single":
                seen.add(("single", flag, result[1]))
                continue
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
        ("single", True, False), ("single", True, True),
        ("single", False, False), ("single", False, True),
        "middle split", "prefix re-key", "suffix split", "whole-run move",
        "whole-run fold into MRU", "tail merge", "LRU-run trim", "LRU prefix trim",
        "eviction of the next hit",
    } <= seen, sorted(map(str, seen))


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
    """A fault-free range makes no per-page ``translate`` call at all."""
    iommu = Iommu()
    table = PageTable(PAGE_4K)
    table.map_range(0, 64 * PAGE_4K)
    iommu.attach(1, table)
    atc = DeviceAtc(iommu, entries=8)
    calls = []
    exact, iommu_exact = atc.translate, iommu.translate
    atc.translate = lambda *args, **kw: calls.append(args) or exact(*args, **kw)
    iommu.translate = lambda *args, **kw: calls.append(args) or iommu_exact(*args, **kw)
    assert atc.translate_range(1, 100, 16 * PAGE_4K) == (atc.hit_latency + 40.0 + 80.0, 0)
    assert calls == []
    assert iommu.translations == 17 and atc.misses == 17


# -- one walk per descriptor ---------------------------------------------


def reference_operands(atc: ReferenceAtc, pasid: int, operands, service_fault: bool):
    """The per-operand loop the data phase ran before one walk covered
    all of a descriptor's operands: each operand through the per-page
    ``reference_range`` (BOF=1) or ``reference_partial`` (BOF=0), the
    largest latency, the summed faults and the first BOF=0 fault by
    offset into its operand."""
    latency = 0.0
    faults = 0
    fault_offset = fault_va = None
    for _buffer, va, nbytes in operands:
        if service_fault:
            critical, found = reference_range(atc, pasid, va, nbytes)
        else:
            critical, found, first_fault = reference_partial(atc, pasid, va, nbytes)
            if found:
                offset = min(nbytes, max(0, first_fault - va))
                if fault_offset is None or offset < fault_offset:
                    fault_offset = offset
                    fault_va = first_fault
        latency = max(latency, critical)
        faults += found
    return latency, faults, fault_offset, fault_va


#: How an operand sits against the one before it, by page.
PLACEMENTS = ("abut", "abut", "share", "gap", "before", "anywhere", "zero")


@st.composite
def _operand_shapes(draw):
    """``(placement, gap, start, pages, end)`` for 1–4 operands: where
    the operand's first page lies against the previous operand's last
    page, how far (``gap``), the in-page start and end (indices into
    ``_IN_PAGE``) and the pages it spans."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(PLACEMENTS),
                st.integers(1, 4),
                st.integers(0, 3),
                st.integers(1, 20),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=4,
        )
    )


def _in_page(page: int, index: int) -> int:
    return (0, 1, page // 2, page - 1)[index]


def _operands(shapes, page: int, base: int):
    """Byte operands ``(None, va, nbytes)`` for ``shapes`` (see above)."""
    operands = []
    last = base
    for placement, gap, start, pages, end in shapes:
        if placement == "abut":
            first = last + 1
        elif placement == "share":
            first = last
        elif placement == "gap":
            first = last + 1 + gap
        elif placement == "before":
            first = max(0, last - gap - pages)
        else:
            first = (base + 7 * gap) % REGION_PAGES
        va = first * page + _in_page(page, start)
        if placement == "zero":
            operands.append((None, va, 0))
            continue
        stop = (first + pages - 1) * page + _in_page(page, end) + 1
        if stop <= va:
            stop = (first + pages) * page
        operands.append((None, va, stop - va))
        last = (stop - 1) // page
    return operands


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    descriptors=st.lists(
        st.tuples(
            st.sampled_from(PASIDS),
            st.integers(0, REGION_PAGES - 1),
            _operand_shapes(),
            st.booleans(),
            st.booleans(),
        ),
        min_size=1,
        max_size=10,
    ),
    injected=st.booleans(),
)
def test_one_walk_matches_per_operand_reference(seed, descriptors, injected):
    """``translate_operands`` against the per-operand, per-page loop:
    operands abutting, sharing a page, gapped, overlapping and empty,
    over partly mapped tables, under BOF=1 and BOF=0 (where software
    may touch the faulting page before the next descriptor), with and
    without a fault injector.  Return values, ATC and IOTLB LRU order,
    hit and miss counters, the IOMMU's counters, frame allocation, the
    metrics and the injector's draws must all agree."""
    runs = []
    for walker in (True, False):
        atc, registry = _stack(seed, reference=not walker)
        injector = FaultInjector(FAULT_PLAN) if injected else None
        results = []
        with injection(injector) if injected else contextlib.nullcontext():
            for pasid, base, shapes, service_fault, touch in descriptors:
                operands = _operands(shapes, atc._page_size(pasid), base)
                if walker:
                    result = atc.translate_operands(pasid, operands, service_fault)
                else:
                    result = reference_operands(atc, pasid, operands, service_fault)
                results.append(result)
                if result[3] is not None and touch:
                    atc.iommu._tables[pasid].map_range(result[3], 1)
        state = _state(atc, registry)
        runs.append((results, state, _injector_state(injector) if injected else None))
    assert runs[0] == runs[1]


def test_abutting_cached_operands_take_one_access(monkeypatch):
    """A source and destination on adjacent pages, both cached as one
    run, move to MRU in one cache access: no split on the source's hit
    and merge on the destination's."""
    iommu = Iommu()
    table = PageTable(PAGE_4K)
    table.map_range(0, 16 * PAGE_4K)
    iommu.attach(1, table)
    atc = DeviceAtc(iommu, entries=64)
    src, dst = (None, 0, 4 * PAGE_4K), (None, 4 * PAGE_4K, 4 * PAGE_4K)
    atc.translate_operands(1, [src, dst], True)
    assert len(atc._cache._index[1][1]) == 1  # one run, pages 0-7
    accesses = []
    access = RunLru.access
    monkeypatch.setattr(
        RunLru, "access", lambda self, *args: accesses.append(args) or access(self, *args)
    )
    assert atc.translate_operands(1, [src, dst], True) == (atc.hit_latency, 0, None, None)
    assert accesses == [(1, 0, 8)]
    assert len(atc._cache._index[1][1]) == 1
    assert (atc.hits, atc.misses) == (8, 8)


def test_empty_registry_still_gets_hit_and_miss_counters():
    """An empty ``MetricsRegistry`` is falsy (it defines ``__len__``);
    the ATC must still publish its hit and miss counters into it."""
    iommu = Iommu()
    table = PageTable(PAGE_4K)
    table.map_range(0, 4 * PAGE_4K)
    iommu.attach(1, table)
    metrics = MetricsRegistry()
    atc = DeviceAtc(iommu, metrics=metrics)
    atc.translate(1, 0)
    atc.translate(1, 0)
    atc.translate_range(1, 0, 2 * PAGE_4K)
    snapshot = metrics.snapshot()
    assert snapshot["atc.misses"] == atc.misses == 2
    assert snapshot["atc.hits"] == atc.hits == 2
