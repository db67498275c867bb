"""Property-based tests: arbiter fairness and batch limits."""

from hypothesis import example, given, settings, strategies as st

from repro.dsa.arbiter import GroupArbiter
from repro.dsa.config import WqConfig
from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.errors import StatusCode
from repro.dsa.opcodes import MAX_BATCH_SIZE, Opcode
from repro.dsa.wq import WorkQueue
from repro.sim import Environment


class _Pe:
    """The arbiter's hand-off target: it sets ``_descriptor`` and pushes
    a zero-delay entry to ``_dispatch`` (never run here)."""

    _descriptor = None

    def _dispatch(self):
        pass


def drain(arbiter, count):
    pe = _Pe()
    for _ in range(count):
        pe._descriptor = None
        arbiter.request(pe)
        assert pe._descriptor is not None, "arbiter starved with work pending"


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 15), min_size=2, max_size=4))
@example(priorities=[1, 14, 15])
def test_dispatch_shares_track_priorities(priorities):
    """Smooth WRR: each WQ's share is proportional to its priority."""
    env = Environment()
    wqs = [
        WorkQueue(env, WqConfig(i, size=128 // len(priorities), priority=p))
        for i, p in enumerate(priorities)
    ]
    arbiter = GroupArbiter(env, wqs)
    per_wq = 128 // len(priorities)
    for wq in wqs:
        for _ in range(per_wq):
            wq.submit(WorkDescriptor(Opcode.NOOP))
    total_priority = sum(priorities)
    # Cap rounds so no WQ's proportional share exceeds its queue depth:
    # once a high-priority WQ runs dry, its surplus rounds redistribute
    # to the others and the proportional bounds below stop applying.
    rounds = min(
        per_wq * len(priorities),
        total_priority * 4,
        per_wq * total_priority // max(priorities),
    )
    drain(arbiter, rounds)
    for wq, priority in zip(wqs, priorities):
        served = per_wq - wq.occupancy
        expected = rounds * priority / total_priority
        # Within one full WRR cycle of the proportional share, unless
        # the WQ simply ran out of queued descriptors.
        assert served >= min(per_wq, expected - total_priority)
        assert served <= expected + total_priority


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(10, 40))
def test_no_wq_starves(n_wqs, rounds):
    env = Environment()
    priorities = [15] + [1] * (n_wqs - 1)
    wqs = [
        WorkQueue(env, WqConfig(i, size=16, priority=p))
        for i, p in enumerate(priorities)
    ]
    arbiter = GroupArbiter(env, wqs)
    for wq in wqs:
        for _ in range(16):
            wq.submit(WorkDescriptor(Opcode.NOOP))
    rounds = min(rounds, 16 * n_wqs)
    drain(arbiter, rounds)
    if rounds >= sum(priorities):
        for wq in wqs:
            assert wq.occupancy < 16, f"WQ {wq.wq_id} starved"


class TestBatchLimits:
    def test_empty_batch_invalid(self):
        batch = BatchDescriptor(descriptors=[])
        assert batch.validate() == StatusCode.INVALID_SIZE

    def test_oversized_batch_invalid(self):
        members = [WorkDescriptor(Opcode.NOOP) for _ in range(MAX_BATCH_SIZE + 1)]
        assert BatchDescriptor(descriptors=members).validate() == StatusCode.INVALID_SIZE

    def test_nested_batch_invalid(self):
        inner = BatchDescriptor(descriptors=[WorkDescriptor(Opcode.NOOP)])
        outer = BatchDescriptor(descriptors=[inner])
        assert outer.validate() == StatusCode.INVALID_OPCODE

    def test_max_batch_accepted(self):
        members = [
            WorkDescriptor(Opcode.MEMMOVE, size=64) for _ in range(MAX_BATCH_SIZE)
        ]
        assert BatchDescriptor(descriptors=members).validate() is None

    def test_batch_aggregate_size(self):
        members = [WorkDescriptor(Opcode.MEMMOVE, size=100) for _ in range(5)]
        assert BatchDescriptor(descriptors=members).size == 500

    @given(st.integers(-(2**33), 2**33))
    @settings(max_examples=40, deadline=None)
    def test_transfer_size_bounds(self, size):
        from repro.dsa.opcodes import MAX_TRANSFER_SIZE

        descriptor = WorkDescriptor(Opcode.MEMMOVE, size=size)
        verdict = descriptor.validate()
        if 0 < size <= MAX_TRANSFER_SIZE:
            assert verdict is None
        else:
            assert verdict == StatusCode.INVALID_SIZE
