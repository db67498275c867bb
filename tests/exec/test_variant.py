"""Cache variant salting: canonical builder and collision freedom.

The result cache keys on ``(exp_id, quick, seed, variant)``; the variant
string is the only thing separating results produced under different
runtime flags (histogram backend, calendar, tier, fleet). These tests pin the
canonical builder — deterministic ordering, default elision — and prove
that no two distinct flag combinations ever share a cache entry.
"""

import itertools

import pytest

from repro.exec.cache import ResultCache, variant_string
from repro.exec.runner import ParallelRunner


class TestVariantString:
    def test_empty_for_no_flags(self):
        assert variant_string() == ""

    def test_defaults_are_elided(self):
        # The default configuration must map to the pre-variant key ""
        # so existing caches stay valid.
        assert variant_string(hist="auto", calendar="heap", tier="small") == ""
        assert variant_string(hist=None, calendar=None) == ""

    def test_keys_are_sorted(self):
        assert (
            variant_string(hist="exact", calendar="wheel")
            == variant_string(calendar="wheel", hist="exact")
            == "calendar=wheel,hist=exact"
        )

    def test_bools_normalise_to_ints(self):
        assert variant_string(trace=True) == "trace=1"
        assert variant_string(trace=False) == "trace=0"

    def test_separator_characters_rejected(self):
        with pytest.raises(ValueError):
            variant_string(**{"bad=key": 1})
        with pytest.raises(ValueError):
            variant_string(hist="a,b")

    def test_distinct_flag_combos_never_collide(self):
        hists = [None, "exact", "streaming"]
        calendars = [None, "wheel", "auto"]
        tiers = [None, "medium", "large"]
        placements = [None, "numa-local", "least-loaded"]
        traces = [False, True]
        combos = list(itertools.product(hists, calendars, tiers, placements, traces))
        strings = [
            variant_string(hist=h, calendar=c, tier=r, placement=p, trace=t)
            for h, c, r, p, t in combos
        ]
        assert len(set(strings)) == len(combos)

    def test_default_calendar_is_elided(self):
        # heap is the byte-identical default; it must map to the
        # pre-calendar key "" so existing caches stay valid.
        assert variant_string(calendar="heap") == ""
        assert variant_string(calendar=None) == ""

    def test_calendar_salts_the_variant(self):
        assert variant_string(calendar="wheel") == "calendar=wheel"
        assert variant_string(calendar="auto") == "calendar=auto"


class TestRunnerVariant:
    def test_default_runner_uses_legacy_empty_variant(self):
        assert ParallelRunner(jobs=1)._cache_variant == ""

    def test_hist_flag_salts_the_variant(self):
        assert ParallelRunner(jobs=1, hist_backend="streaming")._cache_variant == "hist=streaming"

    def test_explicit_defaults_match_default(self):
        runner = ParallelRunner(
            jobs=1, hist_backend="auto", calendar="heap", tier="small",
            traffic="default", fleet="1x1", placement="round-robin",
        )
        assert runner._cache_variant == ""

    def test_combined_flags(self):
        runner = ParallelRunner(jobs=1, hist_backend="streaming", calendar="wheel")
        assert runner._cache_variant == "calendar=wheel,hist=streaming"

    def test_fleet_flags_salt_the_variant(self):
        runner = ParallelRunner(jobs=1, fleet="2x4", placement="numa-local")
        assert runner._cache_variant == "fleet=2x4,placement=numa-local"

    def test_calendar_flag_salts_the_variant(self):
        assert ParallelRunner(jobs=1, calendar="wheel")._cache_variant == "calendar=wheel"
        assert ParallelRunner(jobs=1, calendar="heap")._cache_variant == ""


class TestCacheKeying:
    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(root=tmp_path / "cache")

    def test_variant_separates_entries(self, cache):
        base = cache.key("fig2", quick=False, seed=1)
        salted = cache.key("fig2", quick=False, seed=1, variant="hist=streaming")
        assert base != salted

    def test_same_variant_same_key(self, cache):
        a = cache.key("fig2", quick=True, seed=7, variant="hist=streaming")
        b = cache.key("fig2", quick=True, seed=7, variant="hist=streaming")
        assert a == b
