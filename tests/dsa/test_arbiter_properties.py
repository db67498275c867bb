"""Property-based tests: arbiter fairness and batch limits."""

from typing import Dict, List, Optional

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


class _ReferenceArbiter:
    """The smooth WRR as first written: a candidate list, a ``sum`` of
    their priorities and a ``_current_weight`` dict keyed by WQ id.

    The differential test below pins :class:`GroupArbiter`'s one-pass
    loop to it.
    """

    def __init__(self, env: Environment, wqs: List[WorkQueue]):
        self.env = env
        self.wqs = list(wqs)
        self._current_weight: Dict[int, int] = {wq.wq_id: 0 for wq in wqs}
        self._waiting_pes = []
        for wq in self.wqs:
            wq.on_enqueue = self._on_enqueue

    def request(self, pe) -> None:
        descriptor = self._select()
        if descriptor is not None:
            pe._descriptor = descriptor
        else:
            self._waiting_pes.append(pe)

    def _on_enqueue(self, _wq: WorkQueue) -> None:
        if not self._waiting_pes:
            return
        descriptor = self._select()
        if descriptor is not None:
            self._waiting_pes.pop(0)._descriptor = descriptor

    def _select(self) -> Optional[WorkDescriptor]:
        candidates = [wq for wq in self.wqs if not wq.is_empty]
        if not candidates:
            return None
        total = sum(wq.priority for wq in candidates)
        best = None
        for wq in candidates:
            self._current_weight[wq.wq_id] += wq.priority
            if best is None or self._current_weight[wq.wq_id] > self._current_weight[best.wq_id]:
                best = wq
        self._current_weight[best.wq_id] -= total
        descriptor = best.pop()
        descriptor.dispatch_weight = float(best.priority)
        return descriptor


class _LoggingPe:
    """A hand-off target that logs ``(pe, tag, dispatch_weight)`` when
    the arbiter hands it a descriptor."""

    def __init__(self, index: int, log: list):
        self._index = index
        self._log = log

    def _hand_off(self, descriptor) -> None:
        self._log.append((self._index, descriptor.size, descriptor.dispatch_weight))

    _descriptor = property(fset=_hand_off)

    def _dispatch(self) -> None:
        pass


_STEPS = st.lists(
    st.one_of(st.integers(0, 7), st.just("request")), min_size=1, max_size=120
)


@settings(max_examples=150, deadline=None)
@given(
    priorities=st.lists(st.integers(1, 15), min_size=1, max_size=8),
    order=st.permutations(range(8)),
    steps=_STEPS,
)
# Several WQs, only one of which ever holds work.
@example(priorities=[3, 7, 1], order=list(range(8)), steps=[1, 1, 1] + ["request"] * 4)
@example(priorities=[15, 1], order=[7, 6, 5, 4, 3, 2, 1, 0], steps=["request", 1, 0, 0])
def test_one_pass_wrr_matches_reference(priorities, order, steps):
    """Same picks, dispatch weights and credits as the reference, after
    every enqueue and every request, for groups of 1-8 WQs."""
    n = len(priorities)
    wq_ids = [i for i in order if i < n]  # group order need not follow ids
    logs = ([], [])
    arbiters, groups = [], []
    for arbiter_type in (GroupArbiter, _ReferenceArbiter):
        env = Environment()
        wqs = [
            WorkQueue(env, WqConfig(wq_id, size=8, priority=priorities[wq_id]))
            for wq_id in wq_ids
        ]
        arbiters.append(arbiter_type(env, wqs))
        groups.append(wqs)
    tag = pe_count = 0
    for step in steps:
        if step == "request":
            for arbiter, log in zip(arbiters, logs):
                arbiter.request(_LoggingPe(pe_count, log))
            pe_count += 1
        else:
            position = step % n
            if groups[0][position].occupancy == 8:
                continue
            tag += 1
            for wqs in groups:
                assert wqs[position].submit(WorkDescriptor(Opcode.NOOP, size=tag))
        new, reference = arbiters
        assert logs[0] == logs[1]
        assert new._current_weight == [
            reference._current_weight[wq.wq_id] for wq in reference.wqs
        ]
        assert [wq.occupancy for wq in groups[0]] == [wq.occupancy for wq in groups[1]]
        assert len(new._waiting_pes) == len(reference._waiting_pes)


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
