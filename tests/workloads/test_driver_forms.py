"""The bare-entry libfabric SAR, SPDK and vhost drivers against their
frozen generator forms (``reference_drivers.py``).

Each case sets both forms up on twin platforms and steps them one pop at
a time.  After every pop the two sides must agree on the clock, the
result fields, every core's cycle totals and the metrics snapshot.  The
only entries the bare form drops are the generator processes' exit
entries, which nothing waits on: the reference side pops those alone,
and ``env._seq`` differs by exactly the number of processes that have
returned so far.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.dsa.config import DeviceConfig, WqMode
from repro.platform import spr_platform
from repro.sim import engine
from repro.sim.engine import Process
from repro.workloads import libfabric, spdk, vhost
from repro.workloads.libfabric import SarParams, measure_transfer
from repro.workloads.spdk import DigestMode, SpdkConfig, run_spdk_target
from repro.workloads.vhost import VhostConfig, run_vhost

from tests.workloads import reference_drivers as reference

KB = 1024


def _head(env):
    """The item the next ``env.step()`` pops, or None when none is left."""
    if env.peek() == float("inf"):  # also discards cancelled heads
        return None
    calendar, lane = env._calendar, env._lane
    if calendar and (not lane or calendar[0][0] <= env._now):
        return calendar[0][2]
    return lane[0]


def _lockstep(new, ref, processes, observe):
    """Step ``new`` (bare form) and ``ref`` (generator form) to the end;
    ``observe(side)`` returns what must match after each pop."""
    new_env, ref_env = new.env, ref.env
    assert new_env.metrics is not ref_env.metrics
    exits = pops = 0
    while True:
        head = _head(ref_env)
        if type(head) is Process:
            # A returned process's exit entry: nothing waits on it.
            assert head.callbacks == []
            ref_env.step()
            exits += 1
            continue
        new_head = _head(new_env)
        if head is None:
            assert new_head is None, "the bare form has entries left"
            break
        assert new_head is not None, "the bare form ran out of entries"
        ref_env.step()
        new_env.step()
        pops += 1
        assert new_env.now == ref_env.now
        returned = sum(not process.is_alive for process in processes)
        assert ref_env._seq - new_env._seq == returned
        assert observe(new) == observe(ref)
        assert new_env.metrics.snapshot() == ref_env.metrics.snapshot()
    assert exits == len(processes)
    assert ref_env._seq - new_env._seq == len(processes)
    return pops


def _cores(platform, count):
    return [platform.core(index).times() for index in range(count)]


# -- libfabric SAR ------------------------------------------------------------

SAR_CASES = {
    "cpu-tail": (100 * KB, False, 1, 1),
    "cpu-window8": (100 * KB, False, 8, 4),
    "dsa-tail": (100 * KB, True, 1, 1),
    "dsa-window8-batch-then-single": (136 * KB, True, 8, 1),
    "dsa-single-descriptor": (16 * KB, True, 8, 1),
}


@pytest.mark.parametrize("case", list(SAR_CASES))
def test_sar_forms_agree(case):
    size, use_dsa, window, ranks = SAR_CASES[case]
    params = SarParams()
    new, new_portal, new_space = libfabric._build_platform()
    ref, ref_portal, ref_space = libfabric._build_platform()
    sender = libfabric._start_transfer(
        new, new_portal, new_space, size, use_dsa, params, window, ranks
    )
    processes = reference.start_transfer(
        ref, ref_portal, ref_space, size, use_dsa, params, window, ranks
    )
    pops = _lockstep(new, ref, processes, lambda side: _cores(side, 1))
    assert pops > window
    if use_dsa:
        segments = -(-size // params.segment_size)
        assert sender.pool.reuses == window * segments - min(segments, params.dsa_batch)


# -- SPDK ---------------------------------------------------------------------

SPDK_CASES = {
    mode.value: (
        SpdkConfig(io_size=8 * KB, digest=mode, target_cores=3, queue_depth=12, ios=60),
        32,
    )
    for mode in DigestMode
}
SPDK_CASES["dsa-rejecting-swq"] = (
    SpdkConfig(io_size=4 * KB, digest=DigestMode.DSA, target_cores=8, queue_depth=48, ios=240),
    4,
)


def _spdk_platform(wq_size):
    return spr_platform(device_config=DeviceConfig.single(wq_size=wq_size, mode=WqMode.SHARED))


@pytest.mark.parametrize("case", list(SPDK_CASES))
def test_spdk_forms_agree(case):
    cfg, wq_size = SPDK_CASES[case]
    new, ref = _spdk_platform(wq_size), _spdk_platform(wq_size)
    new_result = spdk._start_target(cfg, new)
    ref_result, processes = reference.start_target(cfg, ref)
    results = {id(new): new_result, id(ref): ref_result}

    def observe(side):
        result = results[id(side)]
        return result.ios_completed, result.latency.values, _cores(side, 1)

    _lockstep(new, ref, processes, observe)
    assert new_result.ios_completed == cfg.ios
    if case == "dsa-rejecting-swq":
        assert new.env.metrics.snapshot()["dsa0.wq0.rejected"] > 0


# -- vhost --------------------------------------------------------------------

VHOST_CASES = {
    "cpu-two-queues": (VhostConfig(packet_size=512, bursts=4, n_queues=2, use_dsa=False), 0),
    "dsa": (VhostConfig(packet_size=1024, bursts=5, use_dsa=True), 1),
    "dsa-stalls": (VhostConfig(packet_size=2048, burst_size=4, bursts=6, use_dsa=True), 1),
    "dsa-shared-dwqs": (VhostConfig(packet_size=256, bursts=4, n_queues=3, use_dsa=True), 2),
}


def _vhost_platform(n_wqs):
    if not n_wqs:
        return spr_platform(device_config=None)
    return spr_platform(device_config=DeviceConfig.multi_wq(n_wqs, wq_size=16))


@pytest.mark.parametrize("case", list(VHOST_CASES))
def test_vhost_forms_agree(case):
    cfg, n_wqs = VHOST_CASES[case]
    new, ref = _vhost_platform(n_wqs), _vhost_platform(n_wqs)
    new_result, _ = vhost._start_vhost(cfg, new)
    ref_result, _, processes = reference.start_vhost(cfg, ref)
    results = {id(new): new_result, id(ref): ref_result}

    def observe(side):
        return dataclasses.astuple(results[id(side)]), _cores(side, cfg.n_queues)

    _lockstep(new, ref, processes, observe)
    assert new_result.packets_forwarded == cfg.bursts * cfg.burst_size * cfg.n_queues
    if case == "dsa-stalls":
        assert new_result.dsa_stall_ns > 0


# -- no generator processes -----------------------------------------------------


def test_entry_points_start_no_process(monkeypatch):
    started = []
    init = Process.__init__

    def counted(self, *args, **kwargs):
        started.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(engine.Process, "__init__", counted)
    measure_transfer(40 * KB, use_dsa=False, window=2)
    measure_transfer(200 * KB, use_dsa=True, window=2)
    for mode in DigestMode:
        run_spdk_target(SpdkConfig(digest=mode, target_cores=2, queue_depth=4, ios=8))
    run_vhost(VhostConfig(bursts=2, use_dsa=False))
    run_vhost(VhostConfig(bursts=2, n_queues=2, use_dsa=True))
    assert started == []
    # The probe itself sees a process start.
    env = spr_platform(device_config=None).env
    env.process(item for item in ())
    assert len(started) == 1
