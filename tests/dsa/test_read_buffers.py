"""Tests for the per-group read-buffer allocation (§3.4 QoS knob)."""

import pytest

from repro.dsa.config import (
    DeviceConfig,
    EngineConfig,
    GroupConfig,
    TOTAL_READ_BUFFERS,
    WqConfig,
)
from repro.dsa.errors import ConfigurationError
from repro.platform import spr_platform
from repro.workloads.microbench import MicrobenchConfig, run_dsa_microbench

KB = 1024


def config_with_buffers(buffers):
    return DeviceConfig(
        wqs=(WqConfig(0, size=32),),
        engines=(EngineConfig(0),),
        groups=(
            GroupConfig(0, wq_ids=(0,), engine_ids=(0,), read_buffers_per_engine=buffers),
        ),
    )


class TestConfiguration:
    def test_valid_override(self):
        config_with_buffers(8).validate()

    def test_zero_buffers_rejected(self):
        with pytest.raises(ConfigurationError, match="read buffer"):
            config_with_buffers(0).validate()

    def test_overcommit_rejected(self):
        config = DeviceConfig(
            wqs=(WqConfig(0, size=16), WqConfig(1, size=16)),
            engines=(EngineConfig(0), EngineConfig(1)),
            groups=(
                GroupConfig(0, (0,), (0,), read_buffers_per_engine=100),
                GroupConfig(1, (1,), (1,), read_buffers_per_engine=100),
            ),
        )
        with pytest.raises(ConfigurationError, match="over-committed"):
            config.validate()

    def test_total_matches_device_spec(self):
        assert TOTAL_READ_BUFFERS == 128

    def test_accel_config_parses_read_buffers(self):
        from repro.runtime.accel_config import parse_device_config

        spec = {
            "wqs": [{"id": 0, "size": 32}],
            "engines": [0],
            "groups": [{"id": 0, "wqs": [0], "engines": [0], "read_buffers": 4}],
        }
        config = parse_device_config(spec)
        assert config.groups[0].read_buffers_per_engine == 4

    def test_save_config_round_trips(self):
        from repro.runtime.accel_config import parse_device_config

        platform = spr_platform(device_config=config_with_buffers(4))
        saved = platform.accel_config.save_config("dsa0")
        assert saved["groups"][0]["read_buffers"] == 4
        parse_device_config(saved).validate()


class TestQosEffect:
    def _throughput(self, buffers):
        cfg = MicrobenchConfig(transfer_size=4 * KB, queue_depth=32, iterations=150)
        platform = spr_platform(device_config=config_with_buffers(buffers))
        return run_dsa_microbench(cfg, platform=platform).throughput

    def test_starved_group_loses_bandwidth(self):
        """Decreasing a PE's read buffers lowers achievable bandwidth."""
        starved = self._throughput(1)
        generous = self._throughput(32)
        assert starved < 0.5 * generous

    def test_engine_pipeline_capacity_follows_group(self):
        platform = spr_platform(device_config=config_with_buffers(3))
        engine = platform.driver.device("dsa0").groups[0].engines[0]
        assert engine.read_buffers == 3
        assert engine.free_read_buffers == 3

    def test_default_when_not_overridden(self):
        platform = spr_platform()
        engine = platform.driver.device("dsa0").groups[0].engines[0]
        timing = platform.driver.device("dsa0").timing
        assert engine.read_buffers == timing.read_buffers_per_engine
        assert engine.free_read_buffers == engine.read_buffers
