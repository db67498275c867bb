"""IOMMU model: device-side address translation and page-fault service.

DSA's shared-virtual-memory support (paper §3.2, F1) rests on the
IOMMU: the device's ATC sends translation requests tagged with a PASID;
on an IOTLB miss the IOMMU walks the process page table, and on an
unmapped page it raises a recoverable page fault serviced by the OS.
The three cost tiers (IOTLB hit, table walk, page fault) are what this
model provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.mem.pagetable import PageTable
from repro.mem.tlb import Tlb


@dataclass(frozen=True)
class IommuParams:
    """Latency parameters of the translation path (ns)."""

    iotlb_entries: int = 256
    iotlb_hit_latency: float = 10.0
    #: Added on top of the page-table's own walk latency.
    walk_overhead: float = 30.0
    #: OS service time for a recoverable (ATS) page fault.
    page_fault_latency: float = 15_000.0


class Iommu:
    """Translation agent shared by all devices on a socket."""

    def __init__(self, params: IommuParams = IommuParams()):
        self.params = params
        self._tables: Dict[int, PageTable] = {}
        self._iotlbs: Dict[int, Tlb] = {}
        #: Per-PASID ``(iotlb, extent_starts, extent_ends, page_size,
        #: miss_latency)`` for range walkers; see :meth:`attach`.
        self.walk_states: Dict[
            int, Tuple[Tlb, List[int], List[int], int, float]
        ] = {}
        self.translations = 0
        self.page_faults = 0
        self._m_translations = None
        self._m_iotlb_misses = None
        self._m_page_faults = None

    def attach_metrics(self, registry, prefix: str = "iommu") -> None:
        """Publish live counters into ``registry`` under ``prefix``.

        The IOMMU is constructed clock-free, so the owning
        :class:`~repro.mem.system.MemorySystem` wires metrics in after
        the fact (see ``docs/OBSERVABILITY.md`` for the names).
        """
        self._m_translations = registry.counter(f"{prefix}.translations")
        self._m_iotlb_misses = registry.counter(f"{prefix}.iotlb_misses")
        self._m_page_faults = registry.counter(f"{prefix}.page_faults")

    def attach(self, pasid: int, table: PageTable) -> None:
        """Register a process address space (PASID) with the IOMMU."""
        if pasid in self._tables:
            raise ValueError(f"PASID {pasid} already attached")
        self._tables[pasid] = table
        iotlb = self._iotlbs[pasid] = Tlb(self.params.iotlb_entries, table.page_size)
        # A range walker may do inline what translate() does for a page
        # that hits the IOTLB or is already mapped (refresh or fill the
        # IOTLB), and nothing else: an unmapped page is a fault and
        # goes through translate().  It finds the mapped pages in the
        # table's extent lists, which the table updates in place, and
        # reports its lookups through count_walk().  ``miss_latency``
        # is what translate() charges for an IOTLB miss on a mapped
        # page, summed in the same order.
        params = self.params
        miss_latency = params.iotlb_hit_latency + params.walk_overhead + table.walk_latency
        self.walk_states[pasid] = (
            iotlb,
            table._starts,
            table._ends,
            table.page_size,
            miss_latency,
        )

    def detach(self, pasid: int) -> None:
        self._tables.pop(pasid, None)
        self._iotlbs.pop(pasid, None)
        self.walk_states.pop(pasid, None)

    def is_attached(self, pasid: int) -> bool:
        return pasid in self._tables

    def translate(
        self, pasid: int, va: int, service_fault: bool = True
    ) -> Tuple[float, bool]:
        """Translate one address; returns ``(latency_ns, faulted)``.

        ``faulted`` is True when the page was not yet mapped (e.g. a
        non-prefaulted buffer).  With ``service_fault`` (the default,
        matching BLOCK_ON_FAULT=1 behaviour) the OS services the fault
        inline: the page is mapped, the full fault latency is charged,
        and the IOTLB is filled.  With ``service_fault=False`` (the
        BOF=0 path) the fault is only *discovered*: the walk latency is
        charged, the page stays unmapped, and nothing is cached — so a
        later retry after software touches the page faults no more.
        """
        table = self._tables.get(pasid)
        if table is None:
            raise KeyError(f"PASID {pasid} not attached to IOMMU")
        self.translations += 1
        if self._m_translations is not None:
            self._m_translations.add()
        iotlb = self._iotlbs[pasid]
        if iotlb.lookup(va):
            return self.params.iotlb_hit_latency, False
        if self._m_iotlb_misses is not None:
            self._m_iotlb_misses.add()
        latency = self.params.iotlb_hit_latency + self.params.walk_overhead
        mapped_before = table.is_mapped(va)
        faulted = not mapped_before
        if faulted:
            self.page_faults += 1
            if self._m_page_faults is not None:
                self._m_page_faults.add()
            if not service_fault:
                # The walk discovered the miss; stop without mapping.
                return latency + table.walk_latency, True
        _pa, _minor = table.translate(va)
        latency += table.walk_latency
        if faulted:
            latency += self.params.page_fault_latency
        iotlb.fill(va)
        return latency, faulted

    def count_walk(self, lookups: int, iotlb_misses: int) -> None:
        """Add a range walk's batched IOTLB lookups, as :meth:`translate`
        would have one page at a time: each lookup is one translation.
        The walker's :meth:`Tlb.fill_range` counted the IOTLB's own
        hits and misses."""
        self.translations += lookups
        if self._m_translations is not None:
            self._m_translations.add(lookups)
        if self._m_iotlb_misses is not None and iotlb_misses:
            self._m_iotlb_misses.add(iotlb_misses)
