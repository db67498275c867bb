"""Differential tests: the run-length LRU against a per-page OrderedDict LRU.

``RunLru`` must leave exactly the state a per-page ``OrderedDict`` LRU
leaves (``move_to_end`` on a hit, evict-the-LRU-then-insert on a
fill): same keys, same LRU-first order, same length, after every op.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.runlru import RunLru

#: Page numbers drawn per namespace; small, so ops overlap and evict.
PAGES = 40


def _runs(lru: RunLru) -> int:
    return sum(len(runs) for _starts, runs in lru._index.values())


class ReferenceLru:
    """A per-page ``OrderedDict`` LRU with the same operations."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.od: "OrderedDict[tuple, bool]" = OrderedDict()

    def touch(self, key) -> bool:
        if key in self.od:
            self.od.move_to_end(key)
            return True
        return False

    def insert(self, key) -> None:
        if len(self.od) >= self.capacity:
            self.od.popitem(last=False)
        self.od[key] = True


def _op():
    ns = st.integers(0, 2)
    vpn = st.integers(0, PAGES - 1)
    count = st.integers(1, 24)
    return st.one_of(
        st.tuples(st.just("fill"), ns, vpn, count),
        st.tuples(st.just("access"), ns, vpn, count),
        st.tuples(st.just("insert_range"), ns, vpn, count),
        st.tuples(st.just("touch"), ns, vpn, st.just(1)),
        st.tuples(st.just("insert"), ns, vpn, st.just(1)),
        st.tuples(st.just("discard"), ns, vpn, st.just(1)),
        st.tuples(st.just("drop"), ns, st.just(0), st.just(0)),
        st.tuples(st.just("clear"), st.just(0), st.just(0), st.just(0)),
    )


def _apply(lru: RunLru, ref: ReferenceLru, op) -> None:
    kind, ns, vpn, count = op
    end = vpn + count
    od = ref.od
    if kind == "fill":
        # The first-page flag is what holds() reads before the fill.
        first_cached = lru.holds(ns, vpn)
        hits = 0
        for v in range(vpn, end):
            if ref.touch((ns, v)):
                hits += 1
            else:
                ref.insert((ns, v))
        assert lru.fill(ns, vpn, end) == (hits, first_cached)
    elif kind == "access":
        stop, cached = lru.access(ns, vpn, end)
        assert vpn < stop <= end
        pages = [(ns, v) for v in range(vpn, stop)]
        if cached:
            assert all(key in od for key in pages)
            for key in pages:
                od.move_to_end(key)
        else:
            assert not any(key in od for key in pages)
            assert stop == end or (ns, stop) in od
    elif kind == "insert_range":
        # Insert the uncached stretch at ``vpn``, as a walker does.
        stop = vpn
        while stop < end and (ns, stop) not in od:
            stop += 1
        if stop > vpn:
            lru.insert(ns, vpn, stop)
            for v in range(vpn, stop):
                ref.insert((ns, v))
    elif kind == "touch":
        assert lru.touch(ns, vpn) == ref.touch((ns, vpn))
    elif kind == "insert":
        if (ns, vpn) not in od:
            lru.insert(ns, vpn, vpn + 1)
            ref.insert((ns, vpn))
    elif kind == "discard":
        lru.discard(ns, vpn)
        od.pop((ns, vpn), None)
    elif kind == "drop":
        lru.drop(ns)
        for key in [k for k in od if k[0] == ns]:
            del od[key]
    else:
        lru.clear()
        od.clear()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 16), st.lists(_op(), max_size=60))
def test_matches_ordered_dict_lru(capacity, ops):
    lru, ref = RunLru(capacity), ReferenceLru(capacity)
    for op in ops:
        _apply(lru, ref, op)
        assert list(lru) == list(ref.od)
        assert len(lru) == len(ref.od)
        assert _runs(lru) <= capacity
        for ns in range(3):
            for vpn in range(PAGES + 24):
                assert lru.holds(ns, vpn) == ((ns, vpn) in ref.od)


def test_bare_keys_for_one_namespace():
    lru = RunLru(4, namespaced=False)
    lru.insert(0, 10, 13)
    lru.touch(0, 11)
    assert list(lru) == [10, 12, 11]
    assert lru.holds(0, 12) and not lru.holds(0, 13)


def test_long_insert_keeps_its_newest_pages():
    lru = RunLru(3)
    lru.insert(1, 0, 2)
    lru.insert(2, 5, 12)
    assert list(lru) == [(2, 9), (2, 10), (2, 11)]
    assert _runs(lru) == 1


def test_contiguous_stretches_fold_into_one_run():
    lru = RunLru(16)
    lru.insert(1, 0, 4)
    lru.insert(1, 4, 8)
    assert _runs(lru) == 1
    lru.insert(1, 10, 12)
    assert lru.access(1, 0, 12) == (8, True)
    assert _runs(lru) == 2  # [10, 12) then [0, 8)
    assert lru.access(1, 8, 12) == (10, False)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        RunLru(0)
