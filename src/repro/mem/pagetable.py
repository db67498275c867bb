"""Per-process page tables with 4 KiB and 2 MiB (huge) pages.

The table is demand-populated: :meth:`PageTable.translate` reports
whether the page was already mapped (minor-fault modelling for devices
is done by the IOMMU).  Walk latency follows the radix depth: a 4 KiB
page needs a 4-level walk, a 2 MiB page stops one level early.
"""

from __future__ import annotations

from typing import Dict, Tuple

PAGE_4K = 4 * 1024
PAGE_2M = 2 * 1024 * 1024

#: Cost of one page-table level lookup (uncached walk step), ns.
WALK_STEP_NS = 20.0


class PageTable:
    """Virtual→physical mapping for one address space (one PASID)."""

    def __init__(self, page_size: int = PAGE_4K, prepopulate: bool = False):
        if page_size not in (PAGE_4K, PAGE_2M):
            raise ValueError(f"unsupported page size: {page_size}")
        self.page_size = page_size
        self.prepopulate = prepopulate
        self._mapping: Dict[int, int] = {}
        self._next_frame = 0
        self.minor_faults = 0

    @property
    def levels(self) -> int:
        """Radix levels walked: 4 for 4 KiB pages, 3 for 2 MiB pages."""
        return 4 if self.page_size == PAGE_4K else 3

    @property
    def walk_latency(self) -> float:
        """Full uncached table-walk latency in ns."""
        return self.levels * WALK_STEP_NS

    def page_number(self, va: int) -> int:
        return va // self.page_size

    def pages_spanned(self, va: int, size: int) -> int:
        """Number of pages touched by the byte range ``[va, va+size)``."""
        if size <= 0:
            return 0
        first = va // self.page_size
        last = (va + size - 1) // self.page_size
        return last - first + 1

    def map_range(self, va: int, size: int) -> None:
        """Eagerly populate mappings for a range (pre-faulted buffer).

        Unmapped pages take consecutive frames in page order — the
        frames one :meth:`_allocate_frame` call per page would hand out.
        """
        first = va // self.page_size
        mapping = self._mapping
        frame = self._next_frame
        for vpn in range(first, first + self.pages_spanned(va, size)):
            if vpn not in mapping:
                mapping[vpn] = frame
                frame += 1
        self._next_frame = frame

    def translate(self, va: int) -> Tuple[int, bool]:
        """Return ``(pa, faulted)``; populates the mapping on a fault."""
        if va < 0:
            raise ValueError(f"negative virtual address: {va}")
        vpn = va // self.page_size
        faulted = vpn not in self._mapping
        if faulted:
            self.minor_faults += 1
            self._mapping[vpn] = self._allocate_frame()
        pfn = self._mapping[vpn]
        return pfn * self.page_size + va % self.page_size, faulted

    def is_mapped(self, va: int) -> bool:
        return va // self.page_size in self._mapping

    def mapped_pages(self) -> int:
        return len(self._mapping)

    def _allocate_frame(self) -> int:
        frame = self._next_frame
        self._next_frame += 1
        return frame
