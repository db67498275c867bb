"""Golden results of small libfabric SAR, SPDK and vhost driver runs.

Each pin is the exact ``repr`` of a float the drivers compute, so a
rewrite of a driver that moves one calendar entry, drops a cycle booking
or changes one latency sample changes a pin.  The pins were recorded
from the drivers' generator form; the bare-entry form must reproduce
them.  They also guard the frozen generator copies in
``reference_drivers.py``: the differential test checks the two forms
against each other, these pins check both against the recorded numbers.
"""

from __future__ import annotations

import pytest

from repro.dsa.config import DeviceConfig, WqMode
from repro.platform import spr_platform
from repro.workloads import libfabric
from repro.workloads.libfabric import allreduce, measure_transfer
from repro.workloads.spdk import DigestMode, SpdkConfig, run_spdk_target
from repro.workloads.vhost import VhostConfig, run_vhost

KB = 1024

#: (size, use_dsa, window, ranks_active) -> repr(elapsed_ns).
SAR = {
    (64 * KB, False, 1, 1): "11702.666666666666",
    (100 * KB, False, 8, 4): "18116.66666666667",  # tail segment, pipelined
    (16 * KB, True, 1, 1): "1529.6666666666665",  # single-descriptor chunk
    (100 * KB, True, 1, 1): "4357.333333333333",  # one batch of 7, tail
    (136 * KB, True, 2, 1): "5947.400000000001",  # a batch of 8, then 1
    (300 * KB, True, 8, 1): "12105.0",  # batches of 8, 8 and 3
}


@pytest.mark.parametrize("key", list(SAR), ids=lambda key: "-".join(map(str, key)))
def test_sar_transfer(key):
    size, use_dsa, window, ranks = key
    result = measure_transfer(size, use_dsa=use_dsa, window=window, ranks_active=ranks)
    assert repr(result.elapsed_ns) == SAR[key]


def test_allreduce():
    result = allreduce(1024 * KB, 4)
    assert (repr(result.cpu_ns), repr(result.dsa_ns)) == ("304761.27999999997", "61068.8")


#: digest mode -> (repr(elapsed_ns), latency summary reprs).
SPDK = {
    DigestMode.NONE: (
        "430915.19999999995",
        ("60.0", "85208.04000000002", "84233.03999999998", "84233.04", "93983.04", "93983.04"),
    ),
    DigestMode.ISAL: (
        "438196.9777777779",
        (
            "60.0", "86391.32888888879", "85143.26222222221", "85143.26222222224",
            "97623.92888888887", "97623.92888888887",
        ),
    ),
    DigestMode.DSA: (
        "433731.78",
        (
            "60.0", "85609.63133333327", "84170.51333333328", "84592.99333333335",
            "95121.73999999999", "95121.73999999999",
        ),
    ),
}

_SUMMARY_KEYS = ("count", "mean", "min", "p50", "p99", "max")


def _summary(result):
    summary = result.latency.summary()
    return tuple(repr(summary[key]) for key in _SUMMARY_KEYS)


@pytest.mark.parametrize("mode", list(SPDK), ids=lambda mode: mode.value)
def test_spdk_target(mode):
    """Three target cores serving a queue depth of twelve."""
    result = run_spdk_target(
        SpdkConfig(io_size=8 * KB, digest=mode, target_cores=3, queue_depth=12, ios=60)
    )
    assert result.ios_completed == 60
    assert (repr(result.elapsed_ns), _summary(result)) == SPDK[mode]


def test_spdk_target_on_a_rejecting_swq():
    """A 4-entry SWQ under 48 outstanding IOs rejects ENQCMDs."""
    platform = spr_platform(device_config=DeviceConfig.single(wq_size=4, mode=WqMode.SHARED))
    result = run_spdk_target(
        SpdkConfig(io_size=4 * KB, digest=DigestMode.DSA, target_cores=8, queue_depth=48, ios=240),
        platform=platform,
    )
    assert platform.env.metrics.snapshot()["dsa0.wq0.rejected"] == 3.0
    assert repr(result.elapsed_ns) == "438934.45333333325"
    assert _summary(result) == (
        "240.0", "85882.18007142842", "83836.00666666664", "83992.24666666664",
        "101897.6025", "101910.43583333332",
    )


def _shared_dwqs():
    return spr_platform(device_config=DeviceConfig.multi_wq(2, wq_size=16))


#: name -> (config, platform factory or None, pins: repr(elapsed_ns),
#: packets forwarded, repr(dsa_stall_ns), repr(total_cycles_ns),
#: repr(copy_cycles_ns)).
VHOST = {
    "cpu": (
        VhostConfig(packet_size=512, bursts=6, use_dsa=False),
        None,
        ("37670.40000000001", 192, "0.0", "37670.40000000001", "13670.400000000041"),
    ),
    "dsa": (
        VhostConfig(packet_size=1024, bursts=6, use_dsa=True),
        None,
        ("25146.0", 192, "0.0", "25146.0", "0.0"),
    ),
    "dsa-shared-dwqs": (
        VhostConfig(packet_size=256, bursts=5, n_queues=3, use_dsa=True),
        _shared_dwqs,
        ("21555.0", 480, "0.0", "64065.0", "0.0"),
    ),
    "dsa-stalls": (
        VhostConfig(packet_size=2048, burst_size=4, bursts=6, use_dsa=True),
        None,
        ("4644.400000000001", 24, "1170.400000000001", "3474.0", "0.0"),
    ),
}


@pytest.mark.parametrize("name", list(VHOST))
def test_vhost(name):
    cfg, platform, pins = VHOST[name]
    result = run_vhost(cfg, platform=platform() if platform else None)
    assert (
        repr(result.elapsed_ns),
        result.packets_forwarded,
        repr(result.dsa_stall_ns),
        repr(result.total_cycles_ns),
        repr(result.copy_cycles_ns),
    ) == pins
    assert result.reordered_packets == 0


#: (size, window) -> batch members the SAR driver took back from its
#: descriptor pool instead of allocating.  The pool came with the
#: bare-entry driver, so unlike the pins above these have no generator
#: counterpart.
SAR_POOL_REUSES = {
    (16 * KB, 1): 0,  # one lone member, never reused
    (16 * KB, 8): 7,
    (136 * KB, 2): 10,  # 8 + 1 members per message, 8 allocated once
    (300 * KB, 8): 144,  # 19 members per message, 8 allocated once
}


@pytest.mark.parametrize("key", list(SAR_POOL_REUSES), ids=lambda key: "-".join(map(str, key)))
def test_sar_pool_reuses(key):
    size, window = key
    platform, portal, space = libfabric._build_platform()
    sender = libfabric._start_transfer(
        platform, portal, space, size, True, libfabric.SarParams(), window
    )
    platform.env.run()
    assert sender.pool.reuses == SAR_POOL_REUSES[key]
    assert len(sender.pool) == min(-(-size // (16 * KB)), 8)
