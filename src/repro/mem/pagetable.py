"""Per-process page tables with 4 KiB and 2 MiB (huge) pages.

The table is demand-populated: :meth:`PageTable.translate` reports
whether the page was already mapped (minor-fault modelling for devices
is done by the IOMMU).  Walk latency follows the radix depth: a 4 KiB
page needs a 4-level walk, a 2 MiB page stops one level early.

Beside the per-page mapping the table keeps its mapped pages as sorted,
disjoint extents, so a device's range walk finds the first unmapped
page of a stretch with one bisection (``DeviceAtc._walk``).
A table never unmaps: the extents only grow and merge.  An unmap would
have to split or shrink them as well.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Tuple

PAGE_4K = 4 * 1024
PAGE_2M = 2 * 1024 * 1024

#: Cost of one page-table level lookup (uncached walk step), ns.
WALK_STEP_NS = 20.0


class PageTable:
    """Virtual→physical mapping for one address space (one PASID)."""

    def __init__(self, page_size: int = PAGE_4K):
        if page_size not in (PAGE_4K, PAGE_2M):
            raise ValueError(f"unsupported page size: {page_size}")
        self.page_size = page_size
        self._mapping: Dict[int, int] = {}
        #: Mapped VPNs as disjoint, non-adjacent extents
        #: ``[_starts[i], _ends[i])`` in ascending order.  Both lists
        #: are only ever updated in place, so a walker may hold them.
        self._starts: List[int] = []
        self._ends: List[int] = []
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
        frames a faulting :meth:`translate` per page would hand out.
        """
        if size > 0:
            page = self.page_size
            self._map(va // page, (va + size - 1) // page + 1)

    def translate(self, va: int) -> Tuple[int, bool]:
        """Return ``(pa, faulted)``; populates the mapping on a fault."""
        if va < 0:
            raise ValueError(f"negative virtual address: {va}")
        vpn = va // self.page_size
        faulted = vpn not in self._mapping
        if faulted:
            self.minor_faults += 1
            self._map(vpn, vpn + 1)
        pfn = self._mapping[vpn]
        return pfn * self.page_size + va % self.page_size, faulted

    def is_mapped(self, va: int) -> bool:
        return va // self.page_size in self._mapping

    def mapped_pages(self) -> int:
        return len(self._mapping)

    def _map(self, first: int, stop: int) -> None:
        """Map the unmapped pages of ``[first, stop)`` to fresh frames.

        Frames are handed out consecutively in page order, and the
        extents absorb ``[first, stop)``.  Pages are mapped in ascending
        order in the common case, which extends or appends the last
        extent without a bisection.
        """
        mapping = self._mapping
        frame = self._next_frame
        for vpn in range(first, stop):
            if vpn not in mapping:
                mapping[vpn] = frame
                frame += 1
        self._next_frame = frame
        starts, ends = self._starts, self._ends
        if not ends or first > ends[-1]:
            starts += (first,)
            ends += (stop,)
        elif first >= starts[-1]:
            if stop > ends[-1]:
                ends[-1] = stop
        else:
            # Merge every extent that overlaps or touches [first, stop).
            i = bisect_left(ends, first)
            j = bisect_right(starts, stop)
            if i < j:
                if starts[i] < first:
                    first = starts[i]
                if ends[j - 1] > stop:
                    stop = ends[j - 1]
            starts[i:j] = (first,)
            ends[i:j] = (stop,)
