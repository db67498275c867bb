"""Cache variant salting: canonical builder and collision freedom.

The result cache keys on ``(exp_id, quick, seed, variant)``; the variant
string is the only thing separating results produced under different
runtime flags (tier, traffic, fleet, placement, faults), built by
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
        assert variant_string(tier="small", fleet="1x1", placement="round-robin") == ""
        assert variant_string(tier=None, fleet=None) == ""

    def test_keys_are_sorted(self):
        assert (
            variant_string(tier="medium", fleet="2x4")
            == variant_string(fleet="2x4", tier="medium")
            == "fleet=2x4,tier=medium"
        )

    def test_bools_normalise_to_ints(self):
        assert variant_string(trace=True) == "trace=1"
        assert variant_string(trace=False) == "trace=0"

    def test_separator_characters_rejected(self):
        with pytest.raises(ValueError):
            variant_string(**{"bad=key": 1})
        with pytest.raises(ValueError):
            variant_string(tier="a,b")

    def test_distinct_flag_combos_never_collide(self):
        traffics = [None, "poisson", "bursty"]
        fleets = [None, "2x4", "4x2"]
        tiers = [None, "medium", "large"]
        placements = [None, "numa-local", "least-loaded"]
        traces = [False, True]
        combos = list(itertools.product(traffics, fleets, tiers, placements, traces))
        strings = [
            variant_string(traffic=m, fleet=f, tier=r, placement=p, trace=t)
            for m, f, r, p, t in combos
        ]
        assert len(set(strings)) == len(combos)


class TestRunnerVariant:
    def test_default_runner_uses_legacy_empty_variant(self):
        assert ParallelRunner(jobs=1).config.variant == ""
        assert RunConfig().variant == ""

    def test_explicit_defaults_match_default(self):
        config = RunConfig(
            tier="small", traffic="default", fleet="1x1", placement="round-robin",
        )
        assert config.variant == ""

    def test_combined_flags(self):
        config = RunConfig(tier="medium", traffic="bursty")
        assert config.variant == "tier=medium,traffic=bursty"

    def test_fleet_flags_salt_the_variant(self):
        config = RunConfig(fleet="2x4", placement="numa-local")
        assert config.variant == "fleet=2x4,placement=numa-local"

    def test_fleet_spelling_is_canonical(self):
        # One topology, one salt: the parsed SOCKETSxDEVICES is stored.
        for spelling in ("2X4", " 2x4", "2x4"):
            config = RunConfig(fleet=spelling)
            assert config.fleet == "2x4"
            assert config.variant == "fleet=2x4"

    def test_fault_fields_salted_only_when_set(self):
        assert RunConfig(fault_seed=3).variant == ""
        assert RunConfig(fault_rate=0.0).variant == "fault_rate=0.0"
        assert (
            RunConfig(fault_rate=0.05, fault_seed=3, tier="medium").variant
            == "fault_rate=0.05,fault_seed=3,tier=medium"
        )


#: ``ResultCache.key("fig2", quick=True, seed, variant)`` with the source
#: fingerprint stubbed out, as recorded before the runner took a
#: RunConfig.  Entries written then must still hit.  The combined row
#: was recorded later, with every knob the config has; an upper-case
#: ``--fleet`` shares the ``2x4`` key.
KEY_PINS = [
    ({}, DEFAULT_SEED, "a595c241d204e11e5f2fd9d2dec04489440b2b9d0360f1e5fd13e8eb4c998873"),
    ({}, 7, "49bc8ae1742e5ea1f07cfd9a5b06351513db56c24873682e6d600457228ef1cc"),
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
    ({"fleet": "2X4"}, DEFAULT_SEED,
     "0efee77fd6fae6cb5cbd2bd3662f97b4914e4863e25871394a0218f2c74dae4a"),
    ({"placement": "numa-local"}, 7,
     "13fdb0ef040f92e045d05a07e852a6a910d4f17dc56615820f36c2090af88c25"),
    ({"fleet": "2x4", "placement": "least-loaded"}, DEFAULT_SEED,
     "7c7329be8fdf82628bc9249e4441e880cd9d5ac1f7ce4798bbe1f71ced1f25db"),
    (
        {"tier": "medium", "traffic": "bursty", "fleet": "2x2", "placement": "numa-local"},
        7,
        "650e4045facc2a9689a13725665f163f057dda09e0808fcbc4ccc6a95a170e99",
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
        salted = cache.key("fig2", quick=False, seed=1, variant="tier=medium")
        assert base != salted

    def test_same_variant_same_key(self, cache):
        a = cache.key("fig2", quick=True, seed=7, variant="tier=medium")
        b = cache.key("fig2", quick=True, seed=7, variant="tier=medium")
        assert a == b
