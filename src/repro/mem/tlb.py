"""LRU translation lookaside buffer: the IOMMU's per-PASID IOTLB.

A bounded LRU set of virtual page numbers with hit/miss counting,
stored as runs of consecutive pages (:class:`~repro.mem.runlru.RunLru`)
so that a device's range walk can refresh or fill a stretch of pages
in one step.
"""

from __future__ import annotations

from typing import Tuple

from repro.mem.runlru import RunLru


class Tlb:
    """Bounded LRU cache of virtual-page translations."""

    def __init__(self, entries: int, page_size: int):
        if entries < 1:
            raise ValueError(f"entries must be >= 1, got {entries}")
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self.entries = entries
        self.page_size = page_size
        #: Iterates VPNs LRU-first.
        self._cache = RunLru(entries, namespaced=False)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)

    def lookup(self, va: int) -> bool:
        """True on hit; refreshes LRU position.  Misses are not filled."""
        if self._cache.touch(0, va // self.page_size):
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, va: int) -> None:
        """Insert a translation, evicting the LRU entry if full."""
        vpn = va // self.page_size
        if not self._cache.touch(0, vpn):
            self._cache.insert(0, vpn, vpn + 1)

    def fill_range(self, vpn: int, end: int) -> Tuple[int, bool]:
        """Look up and fill pages ``[vpn, end)`` in order.

        Returns ``(hits, first_hit)``: the pages that hit, and whether
        page ``vpn`` did.  Each page counts as one :meth:`lookup` and,
        on a miss, one :meth:`fill`, so the counters and LRU order end
        up as a per-page loop leaves them.  The caller vouches that
        every page is mapped.
        """
        hits, first_hit = self._cache.fill(0, vpn, end)
        self.hits += hits
        self.misses += end - vpn - hits
        return hits, first_hit

    def invalidate_all(self) -> None:
        self._cache.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
