"""Unit tests for page tables, TLB, and IOMMU translation."""

from bisect import bisect_right

import pytest
from hypothesis import given, strategies as st

from repro.dsa.atc import DeviceAtc
from repro.mem.iommu import Iommu, IommuParams
from repro.mem.pagetable import PAGE_2M, PAGE_4K, PageTable
from repro.mem.tlb import Tlb


class TestPageTable:
    def test_walk_latency_depends_on_page_size(self):
        assert PageTable(PAGE_4K).walk_latency > PageTable(PAGE_2M).walk_latency

    def test_invalid_page_size(self):
        with pytest.raises(ValueError):
            PageTable(page_size=1234)

    def test_translate_faults_once_per_page(self):
        table = PageTable(PAGE_4K)
        _pa, fault1 = table.translate(0x1000)
        _pa, fault2 = table.translate(0x1008)
        assert fault1 and not fault2
        assert table.minor_faults == 1

    def test_translation_preserves_page_offset(self):
        table = PageTable(PAGE_4K)
        pa, _ = table.translate(0x1234)
        assert pa % PAGE_4K == 0x234

    def test_map_range_prevents_faults(self):
        table = PageTable(PAGE_4K)
        table.map_range(0x10000, 3 * PAGE_4K)
        for offset in range(0, 3 * PAGE_4K, PAGE_4K):
            _pa, fault = table.translate(0x10000 + offset)
            assert not fault

    def test_pages_spanned(self):
        table = PageTable(PAGE_4K)
        assert table.pages_spanned(0, 1) == 1
        assert table.pages_spanned(0, PAGE_4K) == 1
        assert table.pages_spanned(0, PAGE_4K + 1) == 2
        assert table.pages_spanned(PAGE_4K - 1, 2) == 2
        assert table.pages_spanned(0, 0) == 0

    def test_huge_pages_span_fewer_pages(self):
        small = PageTable(PAGE_4K)
        huge = PageTable(PAGE_2M)
        size = 8 * 1024 * 1024
        assert huge.pages_spanned(0, size) < small.pages_spanned(0, size)

    @given(st.integers(0, 2**40), st.integers(1, 2**24))
    def test_pages_spanned_covers_range(self, va, size):
        table = PageTable(PAGE_4K)
        pages = table.pages_spanned(va, size)
        assert pages * PAGE_4K >= size
        assert (pages - 1) * PAGE_4K < size + (va % PAGE_4K) + PAGE_4K

    @pytest.mark.parametrize(
        "page_size,premapped,va,size",
        [
            (PAGE_4K, [], 0x3000, 9 * PAGE_4K + 17),  # fresh
            (PAGE_4K, [0x5000, 0x9000, 0x20000], 0x3000, 9 * PAGE_4K),  # partly mapped
            (PAGE_4K, [0x3000 + i * PAGE_4K for i in range(4)], 0x3000, 4 * PAGE_4K),
            (PAGE_2M, [], PAGE_2M + 5, 3 * PAGE_2M),  # 2 MiB pages, fresh
            (PAGE_2M, [2 * PAGE_2M], PAGE_2M, 4 * PAGE_2M),  # 2 MiB, partly mapped
            (PAGE_4K, [0x1000], 0x1000, 0),  # empty range
        ],
    )
    def test_map_range_matches_per_page_allocation(self, page_size, premapped, va, size):
        table = PageTable(page_size)
        reference = PageTable(page_size)
        for address in premapped:
            table.translate(address)
            reference.translate(address)
        table.map_range(va, size)
        # The per-page loop map_range replaced: one fresh frame per page.
        first = va // page_size
        for vpn in range(first, first + reference.pages_spanned(va, size)):
            if vpn not in reference._mapping:
                reference._mapping[vpn] = reference._next_frame
                reference._next_frame += 1
        assert table._mapping == reference._mapping
        assert list(table._mapping) == list(reference._mapping)
        assert table._next_frame == reference._next_frame
        assert table.translate(va + size)[0] == reference.translate(va + size)[0]

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            PageTable().translate(-1)

    @given(
        st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, 60),
                st.integers(0, 9 * PAGE_4K),
                st.integers(0, PAGE_4K - 1),
            ),
            max_size=40,
        )
    )
    def test_extents_match_the_per_page_mapping(self, ops):
        """The mapped-extent index against the per-page dict, after
        every ``map_range`` and faulting ``translate``: the extents are
        the dict's maximal runs of consecutive pages, and the first
        unmapped page of any stretch read off them is the dict's."""
        table = PageTable(PAGE_4K)
        for is_range, page, size, offset in ops:
            va = page * PAGE_4K + offset
            if is_range:
                table.map_range(va, size)
            else:
                table.translate(va)
            mapping = table._mapping
            runs = []
            for vpn in sorted(mapping):
                if runs and runs[-1][1] == vpn:
                    runs[-1][1] = vpn + 1
                else:
                    runs.append([vpn, vpn + 1])
            assert table._starts == [start for start, _end in runs]
            assert table._ends == [end for _start, end in runs]
            for vpn in range(72):
                expected = vpn
                while expected in mapping:
                    expected += 1
                i = bisect_right(table._starts, vpn)
                found = table._ends[i - 1] if i and vpn < table._ends[i - 1] else vpn
                assert found == expected


class TestTlb:
    def test_miss_then_fill_then_hit(self):
        tlb = Tlb(entries=4, page_size=PAGE_4K)
        assert not tlb.lookup(0x1000)
        tlb.fill(0x1000)
        assert tlb.lookup(0x1000)
        assert tlb.hits == 1 and tlb.misses == 1

    def test_lru_eviction(self):
        tlb = Tlb(entries=2, page_size=PAGE_4K)
        tlb.fill(0 * PAGE_4K)
        tlb.fill(1 * PAGE_4K)
        tlb.lookup(0 * PAGE_4K)  # refresh page 0
        tlb.fill(2 * PAGE_4K)  # evicts page 1 (LRU)
        assert tlb.lookup(0 * PAGE_4K)
        assert not tlb.lookup(1 * PAGE_4K)

    def test_capacity_bound(self):
        tlb = Tlb(entries=3, page_size=PAGE_4K)
        for i in range(10):
            tlb.fill(i * PAGE_4K)
        assert len(tlb) == 3

    def test_invalidate_all(self):
        tlb = Tlb(entries=4, page_size=PAGE_4K)
        tlb.fill(0)
        tlb.invalidate_all()
        assert not tlb.lookup(0)

    @given(
        st.integers(1, 8),
        st.lists(st.tuples(st.integers(0, 20), st.integers(1, 10)), max_size=30),
    )
    def test_fill_range_first_flag_is_the_prior_holds(self, entries, fills):
        """``fill_range``'s first-page flag is what ``holds`` read just
        before the fill, and its hits are the per-page lookups'."""
        tlb = Tlb(entries=entries, page_size=PAGE_4K)
        reference = Tlb(entries=entries, page_size=PAGE_4K)
        for vpn, count in fills:
            first_held = tlb._cache.holds(0, vpn)
            hits = 0
            for page in range(vpn, vpn + count):
                if reference.lookup(page * PAGE_4K):
                    hits += 1
                else:
                    reference.fill(page * PAGE_4K)
            assert tlb.fill_range(vpn, vpn + count) == (hits, first_held)
            assert list(tlb._cache) == list(reference._cache)
            assert (tlb.hits, tlb.misses) == (reference.hits, reference.misses)

    def test_hit_rate(self):
        tlb = Tlb(entries=4, page_size=PAGE_4K)
        assert tlb.hit_rate == 0.0
        tlb.fill(0)
        tlb.lookup(0)
        tlb.lookup(PAGE_4K)
        assert tlb.hit_rate == pytest.approx(0.5)


class TestIommu:
    def _attached(self, page_size=PAGE_4K):
        iommu = Iommu(IommuParams())
        table = PageTable(page_size)
        iommu.attach(pasid=7, table=table)
        return iommu, table

    def test_translate_requires_attached_pasid(self):
        iommu = Iommu()
        with pytest.raises(KeyError):
            iommu.translate(99, 0x1000)

    def test_double_attach_rejected(self):
        iommu, table = self._attached()
        with pytest.raises(ValueError):
            iommu.attach(7, table)

    def test_fault_cost_dominates_unmapped_page(self):
        iommu, table = self._attached()
        latency, faulted = iommu.translate(7, 0x5000)
        assert faulted
        assert latency >= iommu.params.page_fault_latency

    def test_prefaulted_page_avoids_fault(self):
        iommu, table = self._attached()
        table.map_range(0x5000, PAGE_4K)
        latency, faulted = iommu.translate(7, 0x5000)
        assert not faulted
        assert latency < iommu.params.page_fault_latency

    def test_iotlb_hit_is_cheapest(self):
        iommu, table = self._attached()
        table.map_range(0x5000, PAGE_4K)
        first, _ = iommu.translate(7, 0x5000)
        second, _ = iommu.translate(7, 0x5000)
        assert second == iommu.params.iotlb_hit_latency
        assert second < first

    def test_range_translation_counts_faults(self):
        iommu, table = self._attached()
        critical, faults = DeviceAtc(iommu).translate_range(7, 0, 4 * PAGE_4K)
        assert faults == 4
        assert iommu.page_faults == 4 and table.minor_faults == 4
        assert iommu.translations == 4
        # Every demand fault stalls the engine for its service time.
        assert critical >= 4 * iommu.params.page_fault_latency

    def test_range_translation_huge_pages_fewer_translations(self):
        size = 8 * 1024 * 1024
        translations = {}
        for page_size in (PAGE_4K, PAGE_2M):
            iommu, table = self._attached(page_size)
            table.map_range(0, size)
            _critical, faults = DeviceAtc(iommu).translate_range(7, 0, size)
            assert faults == 0
            translations[page_size] = iommu.translations
        assert translations[PAGE_2M] == 4
        assert translations[PAGE_2M] < translations[PAGE_4K]

    def test_detach_then_translate_fails(self):
        iommu, _table = self._attached()
        iommu.detach(7)
        with pytest.raises(KeyError):
            iommu.translate(7, 0)

    def test_zero_size_range(self):
        iommu, _ = self._attached()
        assert DeviceAtc(iommu).translate_range(7, 0, 0) == (0.0, 0)
        assert iommu.translations == 0 and iommu.page_faults == 0
