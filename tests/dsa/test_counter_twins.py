"""Counters bumped through ``.value`` agree with their plain-int twins.

The device path bumps a metric counter's ``value`` directly wherever the
component also keeps a plain ``int`` of the same count (WQ enqueues and
rejects, arbiter dispatches, ATC hits and misses, PE data phases, device
completions and bytes).  A run of the ENQCMD-retry traffic path and one
of a fleet losing a device must leave every such pair equal.
"""

from typing import List

import pytest

from repro.dsa.config import DeviceConfig, WqMode
from repro.dsa.device import DsaDevice
from repro.fleet import DEFAULT_FLEET
from repro.fleet import harness
from repro.fleet.harness import FleetConfig, run_fleet
from repro.obs.metrics import MetricsRegistry, install_metrics, installed_metrics, uninstall_metrics
from repro.traffic.loadgen import drive_profile
from repro.traffic.profile import SizeDist, TrafficProfile, dsa_capacity, make_tenants

KB = 1024


@pytest.fixture
def registry():
    """A private registry for every Environment the test builds."""
    previous = installed_metrics()
    private = MetricsRegistry()
    install_metrics(private)
    yield private
    if previous is None:
        uninstall_metrics()
    else:
        install_metrics(previous)


def assert_twins(devices: List[DsaDevice], snapshot) -> None:
    for device in devices:
        for wq in device.wqs.values():
            assert snapshot[f"{wq.name}.enqueued"] == wq.enqueued
            assert snapshot[f"{wq.name}.rejected"] == wq.rejected
        # Every group of a device shares one ``<device>.arbiter`` name.
        dispatched = sum(group.arbiter.dispatched for group in device.groups.values())
        assert snapshot[f"{device.name}.arbiter.dispatched"] == dispatched
        assert snapshot[f"{device.atc.name}.hits"] == device.atc.hits
        assert snapshot[f"{device.atc.name}.misses"] == device.atc.misses
        for group in device.groups.values():
            for pe in group.engines:
                assert snapshot[f"{pe.agent}.data_phases"] == pe.descriptors_processed
        assert snapshot[f"{device.name}.descriptors_completed"] == device.descriptors_completed
        assert snapshot[f"{device.name}.bytes_processed"] == device.bytes_processed


def test_retry_traffic_counters_match_twins(registry):
    size = 8 * KB
    profile = TrafficProfile(
        name="retry-twins",
        tenants=make_tenants(
            "t",
            8,
            1.25 * dsa_capacity(size, engines=4),
            arrival="bursty",
            cv2=9.0,
            sizes=SizeDist(kind="fixed", size=size),
            max_retries=8,
        ),
    )
    generator, totals = drive_profile(
        profile,
        1500,
        device_config=DeviceConfig.single(wq_size=16, n_engines=4, mode=WqMode.SHARED),
        fleet=DEFAULT_FLEET,
    )
    platform = generator.platform
    assert platform.env.metrics is registry
    devices = list(platform.driver.devices.values())
    snapshot = platform.metrics_snapshot()
    assert_twins(devices, snapshot)
    wq = devices[0].wq(0)
    assert wq.rejected > 0, "the overload should bounce ENQCMDs"
    assert devices[0].descriptors_completed == totals["completed"]
    assert devices[0].atc.hits > 0 and devices[0].atc.misses > 0


def test_fleet_failover_counters_match_twins(registry, monkeypatch):
    platforms = []

    def recording_platform(*args, **kwargs):
        platform = build(*args, **kwargs)
        platforms.append(platform)
        return platform

    build = harness.fleet_platform
    monkeypatch.setattr(harness, "fleet_platform", recording_platform)
    result = run_fleet(
        FleetConfig(
            sockets=2,
            devices_per_socket=2,
            queue_depth=4,
            workers_per_socket=2,
            iterations=24,
            local_buffers=False,
            placement="round-robin",
            disable_device="dsa0",
            disable_at_ns=500.0,
        )
    )
    assert result.lost == 0 and result.rerouted > 0
    (platform,) = platforms
    assert platform.env.metrics is registry
    devices = list(platform.driver.devices.values())
    assert_twins(devices, platform.metrics_snapshot())
    assert sum(device.descriptors_completed for device in devices) > 0
