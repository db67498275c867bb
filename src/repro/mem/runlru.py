"""Run-length LRU cache of virtual page numbers.

The device ATC and the IOMMU's IOTLB are bounded LRU maps of page
translations, and a DSA transfer touches them a page range at a time
(paper §3.2).  Keeping one entry per page made every tail page of a
64 KiB operand cost a lookup plus an insert-and-evict in each cache.
This cache stores *runs* instead: a run is a stretch of consecutive
VPNs of one namespace (the PASID, for the ATC) whose recency rises
with the VPN, so a range that misses or hits as a whole moves as one
run.

Runs sit in a circular doubly linked recency list around a sentinel
(``root.next`` is the LRU run, ``root.prev`` the MRU run).  Each
namespace keeps its run starts sorted, with the runs in a parallel
list; :func:`bisect.bisect_right` finds the run holding a page and the
start of the next cached run.  Nothing is indexed per page.

Every operation leaves exactly the state a per-page
``OrderedDict`` LRU (``move_to_end`` on a hit, evict-the-LRU-then-insert
on a fill) would: iteration yields the same keys in the same LRU-first
order.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Tuple


class _Run:
    """Pages ``[start, end)`` of namespace ``ns``, oldest first."""

    __slots__ = ("ns", "start", "end", "prev", "next")

    def __init__(self, ns, start: int, end: int):
        self.ns = ns
        self.start = start
        self.end = end


class RunLru:
    """Bounded LRU set of ``(namespace, vpn)`` pages, stored as runs.

    ``namespaced=False`` makes iteration yield bare VPNs (one-namespace
    caches such as an IOTLB use namespace 0); otherwise it yields
    ``(namespace, vpn)`` keys.  Callers pass ``insert`` only pages that
    are not cached.
    """

    def __init__(self, capacity: int, namespaced: bool = True):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._namespaced = namespaced
        # end = -1 never equals a page number, so the sentinel is never
        # mistaken for an MRU run a new stretch could extend.
        root = self._root = _Run(None, -1, -1)
        root.prev = root.next = root
        self._index: Dict[object, Tuple[List[int], List[_Run]]] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator:
        root = self._root
        run = root.next
        while run is not root:
            if self._namespaced:
                ns = run.ns
                for vpn in range(run.start, run.end):
                    yield (ns, vpn)
            else:
                yield from range(run.start, run.end)
            run = run.next

    def holds(self, ns, vpn: int) -> bool:
        """True if page ``vpn`` of ``ns`` is cached; recency unchanged."""
        index = self._index.get(ns)
        if index is None:
            return False
        starts, runs = index
        i = bisect_right(starts, vpn)
        return bool(i) and vpn < runs[i - 1].end

    def access(self, ns, vpn: int, end: int) -> Tuple[int, bool]:
        """Refresh the cached stretch at ``vpn``, or measure the gap there.

        Returns ``(stop, cached)`` with ``vpn < stop <= end``.  If page
        ``vpn`` is cached, ``[vpn, stop)`` is the part of its run inside
        the range, and it is now the MRU stretch.  Otherwise none of
        ``[vpn, stop)`` is cached and ``stop`` is where the next cached
        run starts (or ``end``); nothing changed.
        """
        index = self._index.get(ns)
        if index is None:
            return end, False
        starts, runs = index
        i = bisect_right(starts, vpn)
        if i:
            run = runs[i - 1]
            stop = run.end
            if vpn < stop:
                if end < stop:
                    stop = end
                self._refresh(run, i - 1, vpn, stop, starts, runs)
                return stop, True
        if i < len(starts):
            stop = starts[i]
            if stop < end:
                return stop, False
        return end, False

    def touch(self, ns, vpn: int) -> bool:
        """Make page ``vpn`` MRU if cached; True on a hit."""
        index = self._index.get(ns)
        if index is None:
            return False
        starts, runs = index
        i = bisect_right(starts, vpn) - 1
        if i < 0 or vpn >= runs[i].end:
            return False
        self._refresh(runs[i], i, vpn, vpn + 1, starts, runs)
        return True

    def fill(self, ns, vpn: int, end: int) -> Tuple[int, bool]:
        """Touch every page of ``[vpn, end)`` in order.

        Returns ``(hits, first_cached)``: the pages that were cached,
        and whether page ``vpn`` was (what :meth:`holds` read just
        before).  A cached page becomes MRU and an uncached one is
        inserted, evicting the LRU page when full, exactly as a
        per-page loop would.  An insert may evict a later page of the
        range, which then misses in turn.
        """
        hits = 0
        first = vpn
        first_cached = False
        while vpn < end:
            stop, cached = self.access(ns, vpn, end)
            if cached:
                hits += stop - vpn
                if vpn == first:
                    first_cached = True
            else:
                self.insert(ns, vpn, stop)
            vpn = stop
        return hits, first_cached

    def insert(self, ns, vpn: int, end: int) -> None:
        """Add the uncached pages ``[vpn, end)`` as the MRU stretch.

        The cache then drops LRU pages down to ``capacity``: the newest
        ``capacity`` pages of old + new, which is what inserting them
        one at a time, each evicting the LRU page when full, leaves.
        """
        root = self._root
        mru = root.prev
        if mru.end == vpn and mru.ns == ns:
            mru.end = end
        else:
            run = _Run(ns, vpn, end)
            run.prev = mru
            run.next = root
            mru.next = root.prev = run
            index = self._index.get(ns)
            if index is None:
                self._index[ns] = ([vpn], [run])
            else:
                starts, runs = index
                i = bisect_right(starts, vpn)
                starts.insert(i, vpn)
                runs.insert(i, run)
        self._size += end - vpn
        if self._size > self.capacity:
            self._trim()

    def discard(self, ns, vpn: int) -> None:
        """Drop page ``vpn`` of ``ns`` if cached."""
        index = self._index.get(ns)
        if index is None:
            return
        starts, runs = index
        i = bisect_right(starts, vpn) - 1
        if i < 0 or vpn >= runs[i].end:
            return
        run = runs[i]
        self._size -= 1
        if run.end - run.start == 1:
            self._remove(run, i, starts, runs)
        elif vpn == run.start:
            run.start = starts[i] = vpn + 1
        elif vpn == run.end - 1:
            run.end = vpn
        else:
            rest = _Run(ns, vpn + 1, run.end)
            run.end = vpn
            self._link_after(rest, run)
            starts.insert(i + 1, vpn + 1)
            runs.insert(i + 1, rest)

    def drop(self, ns) -> None:
        """Drop every cached page of namespace ``ns``."""
        index = self._index.pop(ns, None)
        if index is None:
            return
        for run in index[1]:
            run.prev.next = run.next
            run.next.prev = run.prev
            self._size -= run.end - run.start

    def clear(self) -> None:
        root = self._root
        root.prev = root.next = root
        self._index.clear()
        self._size = 0

    # -- internals ---------------------------------------------------

    def _refresh(self, run: _Run, i: int, vpn: int, stop: int, starts, runs) -> None:
        """Move pages ``[vpn, stop)`` of ``run`` (index ``i``) to MRU."""
        root = self._root
        mru = root.prev
        start, end = run.start, run.end
        if stop == end:
            if run is mru:
                return  # a suffix of the MRU run is already newest
            if vpn == start:
                # The whole run: fold it into a contiguous MRU run, or
                # relink it.
                run.prev.next = run.next
                run.next.prev = run.prev
                if mru.end == start and mru.ns == run.ns:
                    mru.end = end
                    del starts[i]
                    del runs[i]
                else:
                    run.prev = mru
                    run.next = root
                    mru.next = root.prev = run
                return
            # A suffix: split it off as the new MRU run.
            run.end = vpn
            tail = _Run(run.ns, vpn, end)
            tail.prev = mru
            tail.next = root
            mru.next = root.prev = tail
            starts.insert(i + 1, vpn)
            runs.insert(i + 1, tail)
            return
        if vpn == start:
            # A prefix: the rest of the run keeps its place, re-keyed.
            run.start = starts[i] = stop
            if mru.end == start and mru.ns == run.ns:
                mru.end = stop
                return
            head = _Run(run.ns, start, stop)
            head.prev = mru
            head.next = root
            mru.next = root.prev = head
            starts.insert(i, start)
            runs.insert(i, head)
            return
        # A middle part: split the run in three.
        run.end = vpn
        rest = _Run(run.ns, stop, end)
        self._link_after(rest, run)
        middle = _Run(run.ns, vpn, stop)
        mru = root.prev
        middle.prev = mru
        middle.next = root
        mru.next = root.prev = middle
        starts[i + 1:i + 1] = (vpn, stop)
        runs[i + 1:i + 1] = (middle, rest)

    @staticmethod
    def _link_after(run: _Run, before: _Run) -> None:
        after = before.next
        run.prev = before
        run.next = after
        before.next = after.prev = run

    def _remove(self, run: _Run, i: int, starts, runs) -> None:
        run.prev.next = run.next
        run.next.prev = run.prev
        del starts[i]
        del runs[i]
        if not starts:
            del self._index[run.ns]

    def _trim(self) -> None:
        """Drop LRU pages until ``capacity`` remain."""
        excess = self._size - self.capacity
        root = self._root
        index = self._index
        while excess:
            run = root.next
            starts, runs = index[run.ns]
            i = bisect_left(starts, run.start)
            size = run.end - run.start
            if size <= excess:
                self._remove(run, i, starts, runs)
                excess -= size
            else:
                run.start = starts[i] = run.start + excess
                excess = 0
        self._size = self.capacity
