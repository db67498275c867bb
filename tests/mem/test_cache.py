"""Unit tests for the shared LLC occupancy model."""

import pytest
from hypothesis import given, strategies as st

from repro.mem.cache import SharedLLC

MB = 1024 * 1024


def make_llc(size=100 * MB, ways=10, ddio_ways=2):
    return SharedLLC(size=size, ways=ways, ddio_ways=ddio_ways)


class TestCapacities:
    def test_io_capacity_is_way_fraction(self):
        llc = make_llc(size=100 * MB, ways=10, ddio_ways=2)
        assert llc.io_capacity == pytest.approx(20 * MB)
        assert llc.main_capacity == pytest.approx(80 * MB)

    def test_invalid_way_split_rejected(self):
        with pytest.raises(ValueError):
            SharedLLC(size=MB, ways=4, ddio_ways=4)
        with pytest.raises(ValueError):
            SharedLLC(size=MB, ways=4, ddio_ways=0)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            SharedLLC(size=0)


class TestTouch:
    def test_touch_grows_occupancy(self):
        llc = make_llc()
        inserted = llc.touch("a", 10 * MB)
        assert inserted == 10 * MB
        assert llc.occupancy("a") == 10 * MB

    def test_max_occupancy_caps_growth(self):
        llc = make_llc()
        llc.touch("a", 10 * MB, max_occupancy=4 * MB)
        llc.touch("a", 10 * MB, max_occupancy=4 * MB)
        assert llc.occupancy("a") == 4 * MB

    def test_negative_touch_rejected(self):
        llc = make_llc()
        with pytest.raises(ValueError):
            llc.touch("a", -1)

    def test_full_cache_evicts_proportionally(self):
        llc = make_llc(size=100 * MB, ways=10, ddio_ways=2)  # main = 80 MB
        llc.touch("victim1", 60 * MB)
        llc.touch("victim2", 20 * MB)
        llc.touch("streamer", 40 * MB)
        # 40 MB incoming into a full 80 MB region: victims shrink 50%.
        assert llc.occupancy("victim1") == pytest.approx(30 * MB)
        assert llc.occupancy("victim2") == pytest.approx(10 * MB)
        assert llc.occupancy("streamer") == pytest.approx(40 * MB)

    def test_total_never_exceeds_main_capacity(self):
        llc = make_llc()
        for agent in "abcdef":
            llc.touch(agent, 50 * MB)
        assert llc.total_occupancy <= llc.main_capacity * (1 + 1e-9)

    @given(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(1, 64 * MB)), max_size=30))
    def test_invariants_under_random_touches(self, touches):
        llc = make_llc()
        for agent, size in touches:
            llc.touch(agent, size)
        assert llc.total_occupancy <= llc.main_capacity * (1 + 1e-9)
        for agent in "abcd":
            assert llc.occupancy(agent) >= 0

    def test_io_region_confined_to_ddio_ways(self):
        llc = make_llc(size=100 * MB, ways=10, ddio_ways=2)
        llc.touch("dsa", 50 * MB, io=True)
        assert llc.occupancy("dsa") <= llc.io_capacity * (1 + 1e-9)

    def test_io_writes_do_not_evict_core_data(self):
        llc = make_llc(size=100 * MB, ways=10, ddio_ways=2)
        llc.touch("core", 80 * MB)  # fill the main region
        before = llc.occupancy("core")
        llc.touch("dsa", 30 * MB, io=True)
        assert llc.occupancy("core") == before

    def test_core_streaming_evicts_corunner(self):
        """The Fig 12b scenario: software memcpy dominates the LLC."""
        llc = make_llc()
        llc.touch("xmem", 4 * MB, max_occupancy=4 * MB)
        llc.touch("memcpy", 500 * MB)
        assert llc.occupancy("xmem") < 1 * MB
        assert llc.occupancy("memcpy") > 70 * MB


class TestHitFraction:
    def test_fully_resident_working_set(self):
        llc = make_llc()
        llc.touch("a", 4 * MB, max_occupancy=4 * MB)
        assert llc.hit_fraction("a", 4 * MB) == pytest.approx(1.0)

    def test_zero_working_set_hits(self):
        llc = make_llc()
        assert llc.hit_fraction("a", 0) == 1.0

    def test_partial_residency(self):
        llc = make_llc()
        llc.touch("a", 2 * MB, max_occupancy=2 * MB)
        assert llc.hit_fraction("a", 8 * MB) == pytest.approx(0.25)


class TestShrinkAndClear:
    def test_shrink_reduces_occupancy(self):
        llc = make_llc()
        llc.touch("a", 10 * MB)
        llc.shrink("a", 4 * MB)
        assert llc.occupancy("a") == 6 * MB

    def test_shrink_clamps_at_zero(self):
        llc = make_llc()
        llc.touch("a", MB)
        llc.shrink("a", 10 * MB)
        assert llc.occupancy("a") == 0

    def test_clear_removes_both_regions(self):
        llc = make_llc()
        llc.touch("a", MB)
        llc.touch("a", MB, io=True)
        llc.clear("a")
        assert llc.occupancy("a") == 0


class TestLeakyPressure:
    def test_not_leaky_below_ddio_capacity(self):
        llc = make_llc(size=100 * MB, ways=10, ddio_ways=2)
        llc.register_io_stream("dsa0", 10 * MB, demand_rate=30.0)
        assert not llc.leaky

    def test_not_leaky_when_demand_below_drain(self):
        # One device with a huge footprint still drains fine (Fig 10:
        # a single DSA keeps 30 GB/s even at 1 MB transfers).
        llc = make_llc(size=100 * MB, ways=10, ddio_ways=2)
        llc.register_io_stream("dsa0", 32 * MB, demand_rate=30.0)
        assert not llc.leaky

    def test_leaky_needs_footprint_and_demand(self):
        # Three devices streaming large transfers: footprint overflows
        # the DDIO ways and demand exceeds the drain rate.
        llc = make_llc(size=100 * MB, ways=10, ddio_ways=2)
        for device in range(3):
            llc.register_io_stream(f"dsa{device}", 8 * MB, demand_rate=30.0)
        assert llc.io_pressure == 24 * MB
        assert llc.io_write_demand == 90.0
        assert llc.leaky

    def test_high_demand_small_footprint_not_leaky(self):
        # Four devices on small transfers: destinations fit in DDIO.
        llc = make_llc(size=100 * MB, ways=10, ddio_ways=2)
        for device in range(4):
            llc.register_io_stream(f"dsa{device}", 1 * MB, demand_rate=30.0)
        assert not llc.leaky

    def test_unregister_relieves_pressure(self):
        llc = make_llc()
        llc.register_io_stream("dsa0", 100 * MB, demand_rate=100.0)
        llc.unregister_io_stream("dsa0")
        assert not llc.leaky

    def test_negative_footprint_rejected(self):
        llc = make_llc()
        with pytest.raises(ValueError):
            llc.register_io_stream("dsa0", -1)
        with pytest.raises(ValueError):
            llc.register_io_stream("dsa0", 1, demand_rate=-2)


class TestHistory:
    def test_history_requires_enable(self):
        llc = make_llc()
        with pytest.raises(RuntimeError):
            llc.history("a")

    def test_history_records_occupancy_changes(self):
        llc = make_llc()
        llc.enable_history()
        llc.touch("a", MB, now=1.0)
        llc.touch("a", MB, now=2.0)
        points = llc.history("a")
        assert [t for t, _ in points] == [1.0, 2.0]
        assert points[-1][1] == 2 * MB

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("a", "b", "c", "d")),
                st.floats(0, 40 * MB),
                st.booleans(),
                st.one_of(st.none(), st.floats(0, 60 * MB)),
            ),
            max_size=40,
        )
    )
    def test_history_does_not_change_occupancy(self, touches):
        """Eviction records history only when it is on; either way the
        occupancies come out bit-identical."""
        quiet, recorded = make_llc(), make_llc()
        recorded.enable_history()
        for now, (agent, nbytes, io, cap) in enumerate(touches):
            assert quiet.touch(agent, nbytes, cap, io, float(now)) == recorded.touch(
                agent, nbytes, cap, io, float(now)
            )
            assert quiet._main == recorded._main
            assert quiet._io == recorded._io
        for agent in ("a", "b", "c", "d"):
            points = recorded.history(agent)
            if points:
                assert points[-1][1] == quiet.occupancy(agent)
