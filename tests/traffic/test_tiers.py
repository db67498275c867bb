"""Scale-tier table, install-globals, and cache variant salting."""

import pytest

from repro.exec.cache import variant_string
from repro.traffic import (
    TIERS,
    TRAFFIC_MODES,
    active_tier,
    default_tier,
    default_traffic,
    set_default_tier,
    set_default_traffic,
    tier_names,
)


@pytest.fixture(autouse=True)
def _restore_installs():
    yield
    set_default_tier("small")
    set_default_traffic("default")


def test_tier_table_shape():
    assert tier_names() == ("small", "medium", "large")
    for tier in TIERS.values():
        tier.validate()
    # Strictly increasing scale and budget down the table.
    small, medium, large = TIERS["small"], TIERS["medium"], TIERS["large"]
    assert small.requests < medium.requests < large.requests
    assert small.tenants < medium.tenants < large.tenants
    assert small.expected_wall_s < medium.expected_wall_s < large.expected_wall_s
    # The documented contract: ~10K CI, ~2M nightly.
    assert small.requests == 10_000 and large.requests == 2_000_000


def test_install_globals_roundtrip():
    assert default_tier() == "small"
    set_default_tier("large")
    assert default_tier() == "large"
    assert active_tier() is TIERS["large"]
    set_default_traffic("bursty")
    assert default_traffic() == "bursty"


def test_install_rejects_unknown():
    with pytest.raises(ValueError, match="scale tier"):
        set_default_tier("huge")
    with pytest.raises(ValueError, match="traffic mode"):
        set_default_traffic("fractal")
    # A rejected install leaves the previous value in place.
    assert default_tier() == "small"
    assert default_traffic() == "default"


def test_traffic_modes_cover_arrival_kinds():
    assert TRAFFIC_MODES == ("default", "poisson", "bursty", "diurnal")


# -- cache variant salting --------------------------------------------------


def test_default_tier_and_traffic_keep_historical_keys():
    # Defaults are dropped from the salt so pre-traffic cache entries
    # stay addressable.
    assert variant_string(tier="small", traffic="default") == ""
    assert variant_string(tier="small", traffic="default", fleet="1x1") == ""


def test_nondefault_tier_and_traffic_salt_the_key():
    assert variant_string(tier="large", traffic="default") == "tier=large"
    assert variant_string(tier="small", traffic="bursty") == "traffic=bursty"
    assert (
        variant_string(traffic="diurnal", tier="medium")
        == "tier=medium,traffic=diurnal"
    )
