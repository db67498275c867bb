"""Cache variant salting: canonical builder and collision freedom.

The result cache keys on ``(exp_id, quick, seed, variant)``; the variant
string is the only thing separating results produced under different
runtime flags (histogram backend, calendar, tier, fleet), built by
``RunConfig.variant``. These tests pin the canonical builder —
deterministic ordering, default elision — prove that no two distinct
flag combinations ever share a cache entry, and pin the hex keys of the
existing flag combinations so cached entries survive.
"""

import itertools

import pytest

import repro.exec.cache as cache_mod
from repro.exec import ParallelRunner, RunConfig
from repro.exec.cache import ResultCache, variant_string
from repro.sim.rng import DEFAULT_SEED


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
        assert ParallelRunner(jobs=1).config.variant == ""
        assert RunConfig().variant == ""

    def test_hist_flag_salts_the_variant(self):
        assert RunConfig(hist_backend="streaming").variant == "hist=streaming"

    def test_explicit_defaults_match_default(self):
        config = RunConfig(
            hist_backend="auto", calendar="heap", tier="small",
            traffic="default", fleet="1x1", placement="round-robin",
        )
        assert config.variant == ""

    def test_combined_flags(self):
        config = RunConfig(hist_backend="streaming", calendar="wheel")
        assert config.variant == "calendar=wheel,hist=streaming"

    def test_fleet_flags_salt_the_variant(self):
        config = RunConfig(fleet="2x4", placement="numa-local")
        assert config.variant == "fleet=2x4,placement=numa-local"

    def test_calendar_flag_salts_the_variant(self):
        assert RunConfig(calendar="wheel").variant == "calendar=wheel"
        assert RunConfig(calendar="heap").variant == ""

    def test_fault_fields_salted_only_when_set(self):
        assert RunConfig(fault_seed=3).variant == ""
        assert RunConfig(fault_rate=0.0).variant == "fault_rate=0.0"
        assert (
            RunConfig(fault_rate=0.05, fault_seed=3, tier="medium").variant
            == "fault_rate=0.05,fault_seed=3,tier=medium"
        )


#: ``ResultCache.key("fig2", quick=True, seed, variant)`` with the source
#: fingerprint stubbed out, as recorded before the runner took a
#: RunConfig.  Entries written then must still hit.
KEY_PINS = [
    ({}, DEFAULT_SEED, "a595c241d204e11e5f2fd9d2dec04489440b2b9d0360f1e5fd13e8eb4c998873"),
    ({}, 7, "49bc8ae1742e5ea1f07cfd9a5b06351513db56c24873682e6d600457228ef1cc"),
    ({"hist_backend": "exact"}, DEFAULT_SEED,
     "e17053bad9faeb36b9f15e9ae5181ba78ee651a2464a6d6c541ca3c8d13eab08"),
    ({"hist_backend": "streaming"}, 7,
     "72ace0a15b495282b8413f818baec9b635d45cde33d7a3939bfc473c6524474f"),
    ({"calendar": "wheel"}, DEFAULT_SEED,
     "50f71f29d40f455d3f68219134a65615bfcb567e4a0a89a12565e2e2764c0225"),
    ({"calendar": "auto"}, 7,
     "228dfb1bfb213145382b1bc22e1bf4f36fe39b7fb05b2a2e65ef111aec9c84c3"),
    ({"tier": "medium"}, DEFAULT_SEED,
     "df1cfda6a6af6551dd676801fe81ee8e929c33919ae1975c247e48fea5b2dac7"),
    ({"tier": "large"}, 7,
     "5249474ca4bc062538f842a309efb05542b821662d7ea1c3223e602e478aeffc"),
    ({"traffic": "poisson"}, DEFAULT_SEED,
     "68c048a991a72dcd483ae140e30e48fbbd78ef76954d2a1110ff48fe2d8ac41a"),
    ({"traffic": "bursty"}, 7,
     "7b74a7aff75e32cac6a707bc909f0602789cc40dafe535ccd7dd3318efc0d60c"),
    ({"traffic": "diurnal"}, DEFAULT_SEED,
     "44d21ec230e412e0bb5a9cb66dd4760c099e98ea55d65d458a9642df1dc54308"),
    ({"fleet": "2x4"}, DEFAULT_SEED,
     "0efee77fd6fae6cb5cbd2bd3662f97b4914e4863e25871394a0218f2c74dae4a"),
    ({"placement": "numa-local"}, 7,
     "13fdb0ef040f92e045d05a07e852a6a910d4f17dc56615820f36c2090af88c25"),
    ({"fleet": "2x4", "placement": "least-loaded"}, DEFAULT_SEED,
     "7c7329be8fdf82628bc9249e4441e880cd9d5ac1f7ce4798bbe1f71ced1f25db"),
    (
        {
            "hist_backend": "streaming", "calendar": "wheel", "tier": "medium",
            "traffic": "bursty", "fleet": "2x2", "placement": "numa-local",
        },
        7,
        "cb5c425a2108853793b3e3d0c07275a8668fb624b0955a0a3b82365c7bb28b51",
    ),
]


class TestCacheKeyPins:
    @pytest.mark.parametrize("flags, seed, key", KEY_PINS)
    def test_key_unchanged(self, monkeypatch, flags, seed, key):
        monkeypatch.setattr(cache_mod, "fingerprint", lambda path: "f" * 64)
        config = RunConfig(seed=seed, **flags)
        cache = ResultCache(root="unused")
        assert cache.key("fig2", True, config.seed, config.variant) == key


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
