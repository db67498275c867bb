"""Open-loop arrival generators: determinism, statistics, and the driver."""

import numpy as np
import pytest

from repro.sim import (
    BurstyProcess,
    DiurnalProcess,
    Environment,
    PoissonProcess,
    open_loop,
)
from repro.sim.rng import install_seed, uninstall_seed


@pytest.fixture(autouse=True)
def _clean_seed():
    yield
    uninstall_seed()


# -- construction and validation -------------------------------------------


def test_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        PoissonProcess(0.0)
    with pytest.raises(ValueError):
        PoissonProcess(-1.0)
    with pytest.raises(ValueError):
        BurstyProcess(0.0)


def test_rejects_bad_batch():
    with pytest.raises(ValueError):
        PoissonProcess(1.0, batch=0)


def test_bursty_rejects_cv2_below_one():
    with pytest.raises(ValueError, match="cv2 >= 1"):
        BurstyProcess(1.0, cv2=0.5)


# -- batch-size invariance (the S3 property) -------------------------------


@pytest.mark.parametrize("make", [
    lambda batch: PoissonProcess(0.01, rng=42, batch=batch),
    lambda batch: BurstyProcess(0.01, cv2=4.0, rng=42, batch=batch),
])
@pytest.mark.parametrize("batch", [1, 7, 1000])
def test_gap_stream_batch_invariant(make, batch):
    reference = [make(4096).next_gap() for _ in range(300)]
    got = [make(batch).next_gap() for _ in range(300)]
    assert got == reference
    assert all(type(gap) is float for gap in got)


def test_times_equals_scalar_cumsum():
    scalars = PoissonProcess(0.5, rng=1)
    bulk = PoissonProcess(0.5, rng=1)
    gaps = [scalars.next_gap() for _ in range(100)]
    instants = bulk.times(100, start=10.0)
    assert np.allclose(instants, 10.0 + np.cumsum(gaps))


def test_times_continues_after_scalar_draws():
    # Mixing next_gap and times must never replay or skip a draw.
    mixed = PoissonProcess(0.5, rng=9, batch=16)
    first = [mixed.next_gap() for _ in range(5)]
    rest = mixed.times(40)
    straight = PoissonProcess(0.5, rng=9, batch=16)
    all_gaps = [straight.next_gap() for _ in range(45)]
    assert first == all_gaps[:5]
    assert np.allclose(rest, np.cumsum(all_gaps[5:]))
    with pytest.raises(ValueError):
        mixed.times(-1)


@pytest.mark.parametrize("make", [
    lambda: PoissonProcess(1.0, rng=1, batch=8),
    lambda: BurstyProcess(1.0, cv2=4.0, rng=1, batch=8),
])
def test_times_zero_draws_nothing(make):
    fresh = make()
    empty = fresh.times(0, start=5.0)
    assert empty.shape == (0,)
    assert empty.dtype == np.float64
    reference = make()
    assert fresh.next_gap() == reference.next_gap()
    # After some draws, mid-buffer and at a refill boundary.
    for draws in (3, 5):
        for _ in range(draws):
            assert fresh.next_gap() == reference.next_gap()
        assert fresh.times(0).shape == (0,)
        assert fresh.next_gap() == reference.next_gap()


def test_installed_seed_reproduces_streams():
    # Worker-rebuild path: same installed seed + same stream id -> the
    # identical arrival schedule, which is what --jobs N relies on.
    install_seed(777)
    a = PoissonProcess(0.1, stream=2).times(200)
    install_seed(777)
    b = PoissonProcess(0.1, stream=2).times(200)
    assert np.array_equal(a, b)


def test_distinct_streams_are_independent():
    a = PoissonProcess(0.1, rng=5, stream=0).times(50)
    b = PoissonProcess(0.1, rng=5, stream=1).times(50)
    assert not np.array_equal(a, b)


# -- distribution sanity ---------------------------------------------------


def test_poisson_mean_rate():
    gaps = PoissonProcess(0.02, rng=0).gaps(200_000)
    assert abs(gaps.mean() - 50.0) / 50.0 < 0.02


@pytest.mark.parametrize("cv2", [1.0, 4.0, 16.0])
def test_bursty_hits_mean_and_cv2(cv2):
    rate = 0.01
    gaps = BurstyProcess(rate, cv2=cv2, rng=0).gaps(400_000)
    mean = gaps.mean()
    got_cv2 = gaps.var() / mean**2
    assert abs(mean - 1.0 / rate) / (1.0 / rate) < 0.03
    assert abs(got_cv2 - cv2) / cv2 < 0.08


def test_bursty_is_burstier_than_poisson():
    poisson = PoissonProcess(0.01, rng=3).gaps(100_000)
    bursty = BurstyProcess(0.01, cv2=8.0, rng=3).gaps(100_000)
    assert bursty.std() > 2.0 * poisson.std()


# -- the open_loop driver --------------------------------------------------


def test_open_loop_requires_stopping_rule():
    env = Environment()
    with pytest.raises(ValueError, match="stopping rule"):
        open_loop(env, PoissonProcess(1.0, rng=0), lambda i, t: None)


def test_open_loop_count():
    env = Environment()
    hits = []
    proc = open_loop(env, PoissonProcess(0.1, rng=0), lambda i, t: hits.append((i, t)), count=50)
    env.run()
    assert proc.value == 50
    assert [i for i, _ in hits] == list(range(50))
    times = [t for _, t in hits]
    assert times == sorted(times)
    assert env.now == times[-1]


def test_open_loop_until():
    env = Environment()
    hits = []
    proc = open_loop(env, PoissonProcess(0.1, rng=0), lambda i, t: hits.append(t), until=500.0)
    env.run()
    assert proc.value == len(hits)
    assert all(t <= 500.0 for t in hits)
    assert len(hits) > 0
    # Open-loop is independent of completions: roughly rate * horizon.
    assert 25 <= len(hits) <= 75


def test_open_loop_start_offset():
    env = Environment()
    hits = []
    open_loop(env, PoissonProcess(0.1, rng=0), lambda i, t: hits.append(t), count=10, start=1000.0)
    env.run()
    assert all(t > 1000.0 for t in hits)


def test_open_loop_keeps_one_pending_timer():
    env = Environment()
    pending_high = []

    def handler(i, t):
        # Driver timer only; the handler itself schedules nothing here.
        pending_high.append(len(env._calendar))

    open_loop(env, PoissonProcess(0.1, rng=0), handler, count=30)
    env.run()
    # At handler time the driver's next timer isn't armed yet; the
    # calendar never accumulates driver state.
    assert max(pending_high) <= 1


# -- satellite edge cases: exact horizon, interruption, interleaving -------


def test_open_loop_until_exactly_on_arrival():
    # An arrival landing exactly at the `until` horizon is delivered:
    # the stopping rule is t > until, not t >= until.
    class UnitGaps:
        def next_gap(self):
            return 100.0

    env = Environment()
    hits = []
    proc = open_loop(env, UnitGaps(), lambda i, t: hits.append(t), until=500.0)
    env.run()
    assert hits == [100.0, 200.0, 300.0, 400.0, 500.0]
    assert proc.value == 5


def test_open_loop_handler_interrupts_driver():
    # A handler interrupting the driver mid-run stops the loop cleanly;
    # the process value is the count delivered so far (the interrupting
    # arrival included).
    env = Environment()
    hits = []
    proc = None

    def handler(i, t):
        hits.append(t)
        if i == 9:
            proc.interrupt("enough")

    proc = open_loop(env, PoissonProcess(0.1, rng=0), handler, count=1000)
    env.run()
    assert len(hits) == 10
    assert proc.value == 10
    # The environment keeps running other work after the interrupt.
    after = []
    open_loop(env, PoissonProcess(0.1, rng=1), lambda i, t: after.append(t), count=3)
    env.run()
    assert len(after) == 3


@pytest.mark.parametrize("make", [
    lambda: PoissonProcess(0.01, rng=7),
    lambda: BurstyProcess(0.01, cv2=4.0, rng=7),
    lambda: DiurnalProcess(0.01, period_ns=1e6, amplitude=0.5, rng=7),
])
def test_interleaved_times_and_next_gap_invariant(make):
    # times(n) and next_gap() draw from one cursor: any interleaving
    # yields the same absolute arrival instants as scalar-only draws.
    scalar = make()
    reference, t = [], 0.0
    for _ in range(60):
        t += scalar.next_gap()
        reference.append(t)
    mixed = make()
    got = list(mixed.times(25))
    t = got[-1]
    for _ in range(10):
        t += mixed.next_gap()
        got.append(t)
    got.extend(mixed.times(25, start=t))
    np.testing.assert_allclose(got, reference, rtol=1e-12)


# -- BurstyProcess hardening (cv2 == 1 delegation, NaN rejection) ----------


def test_bursty_cv2_one_matches_poisson_exactly():
    poisson = PoissonProcess(0.02, rng=5)
    bursty = BurstyProcess(0.02, cv2=1.0, rng=5)
    assert [bursty.next_gap() for _ in range(200)] == [
        poisson.next_gap() for _ in range(200)
    ]


def test_bursty_rejects_nan_cv2():
    with pytest.raises(ValueError, match="cv2 >= 1"):
        BurstyProcess(1.0, cv2=float("nan"))


# -- DiurnalProcess ---------------------------------------------------------


def test_diurnal_validates_envelope():
    with pytest.raises(ValueError, match="period_ns"):
        DiurnalProcess(1.0, period_ns=0.0)
    with pytest.raises(ValueError, match="amplitude"):
        DiurnalProcess(1.0, period_ns=1e6, amplitude=1.0)
    with pytest.raises(ValueError, match="amplitude"):
        DiurnalProcess(1.0, period_ns=1e6, amplitude=-0.1)


@pytest.mark.parametrize("batch", [1, 7, 1000])
def test_diurnal_batch_invariant(batch):
    reference = DiurnalProcess(0.01, period_ns=1e5, amplitude=0.8, rng=3, batch=4096)
    got = DiurnalProcess(0.01, period_ns=1e5, amplitude=0.8, rng=3, batch=batch)
    ref_gaps = [reference.next_gap() for _ in range(300)]
    gaps = [got.next_gap() for _ in range(300)]
    np.testing.assert_allclose(gaps, ref_gaps, rtol=1e-12)


def test_diurnal_rate_tracks_envelope():
    # Arrivals cluster where the sinusoid peaks: the densest
    # quarter-period must see more arrivals than the sparsest.
    proc = DiurnalProcess(0.01, period_ns=1e6, amplitude=0.9, rng=9)
    times = list(proc.times(4000))
    period = 1e6
    quarters = [0, 0, 0, 0]
    for t in times:
        quarters[int((t % period) / (period / 4))] += 1
    # sin peaks in the first quarter and troughs in the third.
    assert quarters[0] > quarters[2] * 1.5
