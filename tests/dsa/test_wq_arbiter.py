"""Unit tests for work queues, the group arbiter, and the device ATC."""

import pytest

from repro.dsa.arbiter import GroupArbiter
from repro.dsa.atc import DeviceAtc
from repro.dsa.config import WqConfig, WqMode
from repro.dsa.descriptor import WorkDescriptor
from repro.dsa.errors import SubmissionError
from repro.dsa.opcodes import Opcode
from repro.dsa.wq import WorkQueue
from repro.mem.iommu import Iommu
from repro.mem.pagetable import PAGE_4K, PageTable
from repro.sim import Environment


def make_desc(size=64):
    return WorkDescriptor(Opcode.MEMMOVE, size=size)


class RecordingPe:
    """Stands in for a PE on the arbiter's hand-off: the arbiter sets
    ``_descriptor`` and pushes a zero-delay entry to ``_dispatch``."""

    def __init__(self, env):
        self.env = env
        self._descriptor = None
        self.dispatched = []

    def _dispatch(self):
        self.dispatched.append((self.env.now, self._descriptor))


class TestWorkQueue:
    def test_submit_and_occupancy(self):
        env = Environment()
        wq = WorkQueue(env, WqConfig(0, size=4))
        assert wq.submit(make_desc())
        assert wq.occupancy == 1

    def test_dwq_overflow_raises(self):
        env = Environment()
        wq = WorkQueue(env, WqConfig(0, size=1, mode=WqMode.DEDICATED))
        wq.submit(make_desc())
        with pytest.raises(SubmissionError, match="full DWQ"):
            wq.submit(make_desc())

    def test_swq_overflow_returns_false(self):
        env = Environment()
        wq = WorkQueue(env, WqConfig(0, size=1, mode=WqMode.SHARED))
        assert wq.submit(make_desc())
        assert not wq.submit(make_desc())
        assert wq.rejected == 1

    def test_submit_stamps_time(self):
        env = Environment(initial_time=42.0)
        wq = WorkQueue(env, WqConfig(0, size=4))
        desc = make_desc()
        wq.submit(desc)
        assert desc.times.submitted == 42.0

    def test_pop_fifo(self):
        env = Environment()
        wq = WorkQueue(env, WqConfig(0, size=4))
        a, b = make_desc(), make_desc()
        wq.submit(a)
        wq.submit(b)
        assert wq.pop() is a
        assert wq.pop() is b

    def test_pop_empty_raises(self):
        env = Environment()
        wq = WorkQueue(env, WqConfig(0, size=4))
        with pytest.raises(RuntimeError):
            wq.pop()

    def test_source_counters_appear_on_first_event_only(self):
        env = Environment()
        wq = WorkQueue(env, WqConfig(0, size=1, mode=WqMode.SHARED))
        assert wq.submit(make_desc(), source="t0")
        wq.record_retries(0, source="t0")
        names = set(dict(env.metrics))
        assert not any(".source." in name or "enqcmd_retries" in name for name in names)
        for _ in range(3):
            assert not wq.submit(make_desc(), source="t1")
        wq.record_retries(2, source="t1")
        wq.record_retries(5, source="t1")
        wq.record_retries(1)
        snap = env.metrics.snapshot()
        assert snap["dsa.wq0.source.t1.rejected"] == 3
        assert snap["dsa.wq0.source.t1.enqcmd_retries"] == 7
        assert snap["dsa.wq0.enqcmd_retries"] == 8
        assert snap["dsa.wq0.rejected"] == 3
        assert "dsa.wq0.source.t0.rejected" not in snap
        assert "dsa.wq0.source.t0.enqcmd_retries" not in snap

    def test_enqueue_hook_fires(self):
        env = Environment()
        wq = WorkQueue(env, WqConfig(0, size=4))
        fired = []
        wq.on_enqueue = fired.append
        wq.submit(make_desc())
        assert fired == [wq]


class TestGroupArbiter:
    def _wqs(self, env, priorities):
        return [
            WorkQueue(env, WqConfig(i, size=64, priority=p))
            for i, p in enumerate(priorities)
        ]

    def test_immediate_delivery_when_work_pending(self):
        env = Environment()
        wqs = self._wqs(env, [1])
        arbiter = GroupArbiter(env, wqs)
        desc = make_desc()
        wqs[0].submit(desc)
        pe = RecordingPe(env)
        arbiter.request(pe)
        assert pe._descriptor is desc
        assert pe.dispatched == []  # the dispatch is a calendar entry
        env.run()
        assert pe.dispatched == [(0.0, desc)]

    def test_pe_blocks_until_submission(self):
        env = Environment()
        wqs = self._wqs(env, [1])
        arbiter = GroupArbiter(env, wqs)
        pe = RecordingPe(env)
        desc = make_desc()
        arbiter.request(pe)

        def producer(env):
            yield env.timeout(9.0)
            wqs[0].submit(desc)

        env.process(producer(env))
        env.run()
        assert pe.dispatched == [(9.0, desc)]

    def test_waiting_pes_served_in_request_order(self):
        env = Environment()
        wqs = self._wqs(env, [1])
        arbiter = GroupArbiter(env, wqs)
        first, second = RecordingPe(env), RecordingPe(env)
        arbiter.request(first)
        arbiter.request(second)
        a, b = make_desc(), make_desc()
        wqs[0].submit(a)
        wqs[0].submit(b)
        env.run()
        assert first.dispatched == [(0.0, a)]
        assert second.dispatched == [(0.0, b)]

    def test_priority_weighting(self):
        """A priority-3 WQ should be served ~3x as often as priority-1."""
        env = Environment()
        wqs = self._wqs(env, [3, 1])
        arbiter = GroupArbiter(env, wqs)
        for _ in range(40):
            wqs[0].submit(make_desc())
            wqs[1].submit(make_desc())
        pe = RecordingPe(env)
        for _ in range(40):
            arbiter.request(pe)
        drained_0 = 40 - wqs[0].occupancy
        drained_1 = 40 - wqs[1].occupancy
        assert drained_0 + drained_1 == 40
        assert drained_0 == pytest.approx(30, abs=2)

    def test_no_starvation(self):
        env = Environment()
        wqs = self._wqs(env, [15, 1])
        arbiter = GroupArbiter(env, wqs)
        for _ in range(32):
            wqs[0].submit(make_desc())
            wqs[1].submit(make_desc())
        pe = RecordingPe(env)
        for _ in range(32):
            arbiter.request(pe)
        assert 32 - wqs[1].occupancy >= 2  # low-priority WQ still served

    def test_empty_wq_list_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            GroupArbiter(env, [])

    def test_enqueue_while_every_pe_busy_waits_for_next_request(self):
        env = Environment()
        wqs = self._wqs(env, [1, 2])
        arbiter = GroupArbiter(env, wqs)
        pe = RecordingPe(env)
        first, second = make_desc(), make_desc()
        wqs[0].submit(first)
        arbiter.request(pe)  # busy with ``first`` from here on
        env.run()
        assert all(wq.on_enqueue is None for wq in wqs)
        wqs[1].submit(second)
        assert wqs[1].occupancy == 1
        assert arbiter.dispatched == 1
        arbiter.request(pe)
        assert wqs[1].occupancy == 0
        env.run()
        assert pe.dispatched == [(0.0, first), (0.0, second)]

    def test_enqueue_while_a_pe_waits_is_handed_over_at_once(self):
        env = Environment()
        wqs = self._wqs(env, [1, 2])
        arbiter = GroupArbiter(env, wqs)
        pe = RecordingPe(env)
        arbiter.request(pe)
        assert all(wq.on_enqueue is not None for wq in wqs)
        desc = make_desc()
        wqs[1].submit(desc)
        assert pe._descriptor is desc
        assert wqs[1].occupancy == 0
        assert arbiter.dispatched == 1
        env.run()
        assert pe.dispatched == [(0.0, desc)]

    def test_hook_cleared_when_no_pe_waits(self):
        env = Environment()
        wqs = self._wqs(env, [1, 1])
        arbiter = GroupArbiter(env, wqs)
        first, second = RecordingPe(env), RecordingPe(env)
        arbiter.request(first)
        arbiter.request(second)
        wqs[0].submit(make_desc())
        # ``second`` still waits: the hook stays on every WQ.
        assert all(wq.on_enqueue is not None for wq in wqs)
        wqs[1].submit(make_desc())
        assert all(wq.on_enqueue is None for wq in wqs)
        # With no PE waiting, an enqueue stays queued for a request.
        wqs[0].submit(make_desc())
        assert wqs[0].occupancy == 1
        assert arbiter.dispatched == 2


class TestDeviceAtc:
    def _atc(self, entries=4):
        iommu = Iommu()
        table = PageTable(PAGE_4K)
        table.map_range(0, 64 * PAGE_4K)
        iommu.attach(1, table)
        return DeviceAtc(iommu, entries=entries, hit_latency=5.0)

    def test_miss_then_hit(self):
        atc = self._atc()
        first, _ = atc.translate(1, 0x1000)
        second, _ = atc.translate(1, 0x1000)
        assert second == 5.0
        assert first > second
        assert atc.hits == 1 and atc.misses == 1

    def test_lru_capacity(self):
        atc = self._atc(entries=2)
        for page in range(4):
            atc.translate(1, page * PAGE_4K)
        assert len(atc) == 2

    def test_range_translation_critical_path_only_first_page(self):
        atc = self._atc(entries=64)
        critical, faults = atc.translate_range(1, 0, 8 * PAGE_4K)
        assert faults == 0
        # Critical path = first page only; the other 7 overlap with data.
        single, _ = self._atc().translate(1, 0)
        assert critical == pytest.approx(single)

    def test_fault_stalls_critical_path(self):
        iommu = Iommu()
        iommu.attach(1, PageTable(PAGE_4K))  # nothing pre-mapped
        atc = DeviceAtc(iommu, entries=16, hit_latency=5.0)
        critical, faults = atc.translate_range(1, 0, 2 * PAGE_4K)
        assert faults == 2
        assert critical >= 2 * iommu.params.page_fault_latency

    def test_invalidate_pasid(self):
        atc = self._atc()
        atc.translate(1, 0)
        atc.invalidate_pasid(1)
        assert len(atc) == 0

    def test_zero_size_range(self):
        atc = self._atc()
        assert atc.translate_range(1, 0, 0) == (0.0, 0)
