"""Device-side address translation cache (ATC).

DSA caches translations locally and falls back to the socket IOMMU on
a miss (paper §3.2).  Entries are keyed by (PASID, virtual page), so
multiple processes share the device without flushes between them (F1).

The ATC is also the natural choke point for deterministic fault
injection (``repro.faults``): every device translation consults the
active injector, which may turn it into a page fault (minor or major)
or trigger an ATC shoot-down, before the real cache/IOMMU lookup runs.
With no injector installed those checks are a single ``None`` test,
made once per range for a transfer's tail pages.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple, TYPE_CHECKING

from repro.faults.inject import active_injector
from repro.mem.iommu import Iommu

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
        self._cache: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._metrics = metrics
        self._m_hits = metrics.counter(f"{name}.hits") if metrics else None
        self._m_misses = metrics.counter(f"{name}.misses") if metrics else None

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
        injector = active_injector()
        if injector is not None and injector.shootdown_due():
            self.flush()
            self._count("shootdowns")
        page = self._page_size(pasid)
        key = (pasid, va // page)
        if injector is not None:
            kind = injector.page_fault(pasid, va, page)
            if kind is not None:
                # Injected fault: the stale/absent translation forces a
                # walk that misses; drop any cached entry for the page.
                self._cache.pop(key, None)
                self.misses += 1
                if self._m_misses is not None:
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
            if self._m_hits is not None:
                self._m_hits.add()
            return self.hit_latency, False
        self.misses += 1
        if self._m_misses is not None:
            self._m_misses.add()
        latency, faulted = self.iommu.translate(pasid, va, service_fault)
        if faulted and not service_fault:
            # Unserviced fault: the page stays unmapped, so caching the
            # (absent) translation would be wrong.
            return self.hit_latency + latency, True
        if len(self._cache) >= self.entries:
            self._cache.popitem(last=False)
        self._cache[key] = True
        return self.hit_latency + latency, faulted

    def translate_range(self, pasid: int, va: int, size: int) -> Tuple[float, int]:
        """Translate a whole transfer's pages.

        Returns ``(critical_path_latency, faults)``.  Only the first
        page's translation (plus any page-fault service) sits on the
        critical path; subsequent pages are translated while data
        streams (the reason huge pages barely move throughput, Fig 8).
        """
        if size <= 0:
            return 0.0, 0
        page = self._page_size(pasid)
        critical, faulted = self.translate(pasid, va)
        faults = int(faulted)
        if va % page + size > page:
            critical, faults, _ = self._walk_tail(
                pasid, va, size, page, critical, faults, service_fault=True
            )
        return critical, faults

    def translate_range_partial(
        self, pasid: int, va: int, size: int
    ) -> Tuple[float, int, Optional[int]]:
        """Translate pages until the first fault (BOF=0 semantics).

        Returns ``(critical_path_latency, faults, fault_va)``.  Shares
        :meth:`_walk_tail` with :meth:`translate_range` but with
        ``service_fault=False``, stopping at the first faulting page:
        that fault is only discovered (walk latency on the critical
        path), the page is left unmapped, and ``fault_va`` is the base
        address of the faulting page (clamped to ``va`` for the first
        page).  On a fault-free range the latency, cache state, and
        IOMMU state are identical to :meth:`translate_range`.
        """
        if size <= 0:
            return 0.0, 0, None
        page = self._page_size(pasid)
        critical, faulted = self.translate(pasid, va, service_fault=False)
        if faulted:
            return critical, 1, va
        if va % page + size <= page:
            return critical, 0, None
        return self._walk_tail(pasid, va, size, page, critical, 0, service_fault=False)

    def _walk_tail(
        self,
        pasid: int,
        va: int,
        size: int,
        page: int,
        critical: float,
        faults: int,
        service_fault: bool,
    ) -> Tuple[float, int, Optional[int]]:
        """Translate the pages of ``[va, va+size)`` after the first one.

        Callers translate the first page themselves and call this only
        when the range spans more than one ``page``.  Returns
        ``(critical, faults, fault_va)``: the first page's ``critical``
        latency and ``faults`` plus the tail's faults.  The tail
        overlaps with streaming, so a page that does not fault adds no
        latency and none is computed: an ATC hit, or an IOTLB hit or
        fill for an already-mapped page, is done inline on the cache
        maps, and its counts are flushed once at the end.  Two kinds of
        page take the exact per-page :meth:`translate` instead:

        * every page while a fault injector is active, so its decisions
          are drawn in the same page order;
        * a page that misses the ATC and IOTLB and is unmapped — a real
          fault, which stalls the engine for its full service time
          (BOF=1) or ends the walk at ``fault_va`` (BOF=0, nothing
          cached or mapped for it and no later page touched).

        Cache LRU order, counters, frame allocation and metrics end up
        exactly as a per-page :meth:`translate` loop leaves them.
        """
        exact = active_injector() is not None
        cache, entries = self._cache, self.entries
        iotlb, iotlb_entries, mapping = self.iommu.walk_state(pasid)
        hits = misses = iotlb_hits = iotlb_misses = 0
        fault_va = None
        for vpn in range(va // page + 1, (va + size - 1) // page + 1):
            if not exact:
                key = (pasid, vpn)
                if key in cache:
                    cache.move_to_end(key)
                    hits += 1
                    continue
                if vpn in iotlb:
                    iotlb.move_to_end(vpn)
                    iotlb_hits += 1
                elif vpn in mapping:
                    iotlb_misses += 1
                    if len(iotlb) >= iotlb_entries:
                        iotlb.popitem(last=False)
                    iotlb[vpn] = True
                else:
                    key = None  # unmapped: fault on the exact path below
                if key is not None:
                    misses += 1
                    if len(cache) >= entries:
                        cache.popitem(last=False)
                    cache[key] = True
                    continue
            latency, faulted = self.translate(pasid, vpn * page, service_fault)
            if faulted:
                critical += latency
                faults += 1
                if not service_fault:
                    fault_va = vpn * page
                    break
        if hits:
            self.hits += hits
            if self._m_hits is not None:
                self._m_hits.add(hits)
        if misses:
            # Each inline ATC miss was one IOTLB lookup.
            self.misses += misses
            if self._m_misses is not None:
                self._m_misses.add(misses)
            self.iommu.count_walk(pasid, iotlb_hits, iotlb_misses)
        return critical, faults, fault_va

    def flush(self) -> None:
        """Drop every cached translation (ATC shoot-down / device reset)."""
        self._cache.clear()

    def invalidate_pasid(self, pasid: int) -> None:
        for key in [k for k in self._cache if k[0] == pasid]:
            del self._cache[key]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
