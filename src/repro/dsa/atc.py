"""Device-side address translation cache (ATC).

DSA caches translations locally and falls back to the socket IOMMU on
a miss (paper §3.2).  Entries are keyed by (PASID, virtual page), so
multiple processes share the device without flushes between them (F1).

The ATC is also the natural choke point for deterministic fault
injection (``repro.faults``): every device translation consults the
active injector, which may turn it into a page fault (minor or major)
or trigger an ATC shoot-down, before the real cache/IOMMU lookup runs.
With no injector installed those checks are a single ``None`` test
per descriptor, and its operands are walked a stretch of cached or
uncached pages at a time (:class:`~repro.mem.runlru.RunLru`), abutting
operands as one stretch (:meth:`DeviceAtc.translate_operands`).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Sequence, Tuple, TYPE_CHECKING

from repro.faults import inject
from repro.mem.iommu import Iommu
from repro.mem.runlru import RunLru

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry


class DeviceAtc:
    """LRU cache of (pasid, vpn) → translation, backed by the IOMMU.

    When the owning device passes a metrics registry, hits and misses
    are also published live as ``<name>.hits`` / ``<name>.misses``;
    injected faults and shoot-downs appear lazily as
    ``<name>.injected_faults`` / ``<name>.shootdowns`` the first time
    one fires, so fault-free runs publish no extra names.
    """

    def __init__(
        self,
        iommu: Iommu,
        entries: int = 128,
        hit_latency: float = 8.0,
        metrics: Optional["MetricsRegistry"] = None,
        name: str = "atc",
    ):
        if entries < 1:
            raise ValueError(f"ATC entries must be >= 1, got {entries}")
        self.iommu = iommu
        self.entries = entries
        self.hit_latency = hit_latency
        self.name = name
        #: Iterates ``(pasid, vpn)`` keys LRU-first.
        self._cache = RunLru(entries)
        self._iotlb_hit_latency = iommu.params.iotlb_hit_latency
        self.hits = 0
        self.misses = 0
        self._metrics = metrics
        # ``is not None``: an empty registry is falsy (it defines __len__).
        self._m_hits = metrics.counter(f"{name}.hits") if metrics is not None else None
        self._m_misses = (
            metrics.counter(f"{name}.misses") if metrics is not None else None
        )

    def __len__(self) -> int:
        return len(self._cache)

    def _page_size(self, pasid: int) -> int:
        return self.iommu._tables[pasid].page_size

    def _count(self, suffix: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"{self.name}.{suffix}").add()

    def translate(
        self, pasid: int, va: int, service_fault: bool = True
    ) -> Tuple[float, bool]:
        """Translate one address; ``(latency_ns, faulted)``.

        ``service_fault=False`` models a BOF=0 engine: a faulting page
        is *discovered* (walk latency charged) but not serviced — the
        mapping is not created and nothing is cached, so software can
        touch the page and resubmit the remainder.
        """
        injector = inject.active
        if injector is not None and injector.shootdown_due():
            self.flush()
            self._count("shootdowns")
        page = self._page_size(pasid)
        vpn = va // page
        cache = self._cache
        if injector is not None:
            kind = injector.page_fault(pasid, va, page)
            if kind is not None:
                # Injected fault: the stale/absent translation forces a
                # walk that misses; drop any cached entry for the page.
                cache.discard(pasid, vpn)
                self.misses += 1
                if self._m_misses is not None:
                    self._m_misses.value += 1
                self._count("injected_faults")
                walk = (
                    self.iommu.params.iotlb_hit_latency
                    + self.iommu.params.walk_overhead
                    + self.iommu._tables[pasid].walk_latency
                )
                if not service_fault:
                    return self.hit_latency + walk, True
                latency = walk + injector.service_latency_ns(kind)
                cache.insert(pasid, vpn, vpn + 1)
                return self.hit_latency + latency, True
        if cache.touch(pasid, vpn):
            self.hits += 1
            if self._m_hits is not None:
                self._m_hits.value += 1
            return self.hit_latency, False
        self.misses += 1
        if self._m_misses is not None:
            self._m_misses.value += 1
        latency, faulted = self.iommu.translate(pasid, va, service_fault)
        if faulted and not service_fault:
            # Unserviced fault: the page stays unmapped, so caching the
            # (absent) translation would be wrong.
            return self.hit_latency + latency, True
        cache.insert(pasid, vpn, vpn + 1)
        return self.hit_latency + latency, faulted

    def translate_range(self, pasid: int, va: int, size: int) -> Tuple[float, int]:
        """Translate a whole transfer's pages.

        Returns ``(critical_path_latency, faults)``.  Only the first
        page's translation (plus any page-fault service) sits on the
        critical path; subsequent pages are translated while data
        streams (the reason huge pages barely move throughput, Fig 8).
        """
        critical, faults, _offset, _fault_va = self.translate_operands(
            pasid, ((None, va, size),), True
        )
        return critical, faults

    def translate_range_partial(
        self, pasid: int, va: int, size: int
    ) -> Tuple[float, int, Optional[int]]:
        """Translate pages until the first fault (BOF=0 semantics).

        Returns ``(critical_path_latency, faults, fault_va)``.  The
        walk is :meth:`translate_range`'s with ``service_fault=False``,
        stopping at the first faulting page: that fault is only
        discovered (walk latency on the critical path), the page is
        left unmapped, and ``fault_va`` is the base address of the
        faulting page (clamped to ``va`` for the first page).  On a
        fault-free range the latency, cache state, and IOMMU state are
        identical to :meth:`translate_range`.
        """
        critical, faults, _offset, fault_va = self.translate_operands(
            pasid, ((None, va, size),), False
        )
        return critical, faults, fault_va

    def translate_operands(
        self, pasid: int, operands: Sequence[Tuple[object, int, int]], service_fault: bool
    ) -> Tuple[float, int, Optional[int], Optional[int]]:
        """Translate every page of a descriptor's operands, in order.

        ``operands`` are ``(buffer, va, nbytes)`` triples as
        :func:`~repro.dsa.engine.io_demand` lists them (the buffer is not
        read).  The result is what walking each operand alone, one after
        the other, gives: :meth:`translate_range` for
        ``service_fault=True`` (BOF=1), :meth:`translate_range_partial`
        for ``service_fault=False`` (BOF=0).  Returns ``(latency,
        faults, fault_offset, fault_va)``: the largest operand critical
        path, the summed faults, and under BOF=0 the smallest fault
        offset into its operand with that fault's address (``None`` for
        both when no operand faulted).

        With no fault injector installed, pages are walked a segment at
        a time, first page included:

        * a stretch of ATC hits becomes the MRU stretch in one step;
        * a stretch of ATC misses on mapped pages (one bisection of the
          page table's mapped extents, exact because a table never
          unmaps) goes through the IOTLB the same way
          (:meth:`Tlb.fill_range`, which also says whether the first
          page hit) and is inserted into the ATC as one MRU stretch;
        * an unmapped page is a real fault and takes the exact
          :meth:`translate`: it stalls the engine for its full service
          time (BOF=1) or ends its operand's walk at the faulting page
          (BOF=0, nothing cached or mapped for it and no later page of
          the operand touched; the next operand starts at its own first
          page).

        Operands whose pages abut (one's last page + 1 is the next one's
        first) form one stretch, so a cached run covering both moves to
        MRU in one step instead of being split on one operand's hit and
        merged back on the next's.  That is exact: a per-page loop over
        one operand and then the next visits the same pages in the same
        order as a loop over their union.  A cached stretch may run past
        an operand's end; an uncached one stops there, so each
        operand's first-page IOTLB flag is read when a per-operand walk
        would read it.

        Each operand's critical path follows from its first page's
        segment kind (ATC hit, IOTLB hit or table walk); its other pages
        overlap with streaming, so only their faults add latency.  Cache
        LRU order, counters, frame allocation and metrics end up exactly
        as a per-page :meth:`translate` loop leaves them: an insert may
        evict a later page of the range, which then misses in turn.
        While an injector is active every operand takes
        :meth:`_walk_exact` instead.
        """
        exact = inject.active is not None
        walk_state = None
        cache = self._cache
        hit_latency = self.hit_latency
        worst = 0.0
        faults = hits = misses = iotlb_misses = 0
        fault_offset = fault_va = None
        # The walk stands at page ``vpn``; ``last`` is the end of the
        # operand walked before, and ``limit`` the end of the abutting
        # operands a cached stretch may cover.
        vpn = last = limit = -1
        n = len(operands)
        for k in range(n):
            _buffer, va, size = operands[k]
            if size <= 0:
                continue
            if exact:
                critical, op_faults, fault = self._walk_exact(pasid, va, size, service_fault)
                faults += op_faults
            else:
                if walk_state is None:
                    # Read at the first page walked: a descriptor with
                    # no bytes to move touches no IOMMU state.
                    walk_state = iotlb, starts, ends, page, miss_latency = (
                        self.iommu.walk_states[pasid]
                    )
                first = va // page
                end = (va + size - 1) // page + 1
                if vpn > first and first == last:
                    # Abuts the operand before, whose cached stretch ran
                    # past page ``first``: ``limit`` covers this one.
                    critical = hit_latency
                else:
                    vpn = first
                    critical = None
                    limit = end
                    j = k + 1
                    while j < n:
                        _buffer, next_va, next_size = operands[j]
                        if next_size <= 0 or next_va // page != limit:
                            break
                        limit = (next_va + next_size - 1) // page + 1
                        j += 1
                last = end
                fault = None
                while vpn < end:
                    stop, cached = cache.access(pasid, vpn, limit)
                    if cached:
                        if critical is None:
                            critical = hit_latency
                        hits += stop - vpn
                        vpn = stop
                        continue
                    if stop > end:
                        stop = end
                    # The stretch's mapped prefix ends where the table's
                    # extent holding ``vpn`` ends; none holds it if that
                    # is <= vpn.
                    i = bisect_right(starts, vpn)
                    mapped = ends[i - 1] if i else vpn
                    if mapped > stop:
                        mapped = stop
                    if mapped > vpn:
                        iotlb_hits, iotlb_first = iotlb.fill_range(vpn, mapped)
                        if critical is None:
                            critical = hit_latency + (
                                self._iotlb_hit_latency if iotlb_first else miss_latency
                            )
                        iotlb_misses += mapped - vpn - iotlb_hits
                        cache.insert(pasid, vpn, mapped)
                        misses += mapped - vpn
                        vpn = mapped
                        if mapped == stop:
                            continue
                    # Page ``vpn`` is unmapped: a fault, on the exact path.
                    page_va = max(va, vpn * page)
                    latency, faulted = self.translate(pasid, page_va, service_fault)
                    if critical is None:
                        critical = latency
                    elif faulted:
                        critical += latency
                    if faulted:
                        faults += 1
                        if not service_fault:
                            fault = page_va
                            break
                    vpn += 1
            if critical > worst:
                worst = critical
            if fault is not None:
                # The fault lies inside the operand: 0 <= offset < size.
                offset = fault - va
                if fault_offset is None or offset < fault_offset:
                    fault_offset = offset
                    fault_va = fault
        if hits:
            self.hits += hits
            if self._m_hits is not None:
                self._m_hits.value += hits
        if misses:
            # Each inline ATC miss was one IOTLB lookup.
            self.misses += misses
            if self._m_misses is not None:
                self._m_misses.value += misses
            self.iommu.count_walk(misses, iotlb_misses)
        return worst, faults, fault_offset, fault_va

    def _walk_exact(
        self, pasid: int, va: int, size: int, service_fault: bool
    ) -> Tuple[float, int, Optional[int]]:
        """One operand of :meth:`translate_operands` while a fault
        injector is active: every page takes :meth:`translate`, so
        injected faults, shoot-downs (which flush the ATC mid-range) and
        scripted addresses are decided in page order.  Returns
        ``(critical, faults, fault_va)``."""
        page = self._page_size(pasid)
        critical, faulted = self.translate(pasid, va, service_fault)
        faults = int(faulted)
        if faulted and not service_fault:
            return critical, 1, va
        for vpn in range(va // page + 1, (va + size - 1) // page + 1):
            latency, faulted = self.translate(pasid, vpn * page, service_fault)
            if faulted:
                critical += latency
                faults += 1
                if not service_fault:
                    return critical, faults, vpn * page
        return critical, faults, None

    def flush(self) -> None:
        """Drop every cached translation (ATC shoot-down / device reset)."""
        self._cache.clear()

    def invalidate_pasid(self, pasid: int) -> None:
        self._cache.drop(pasid)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
