"""Bare calendar entries (``Environment.call_in``) and event delays.

A bare entry pushes ``(when, seq, fn)`` and the run loops call ``fn()``
when it pops.  It must pop exactly where the Timeout form —
``env.timeout(delay).callbacks.append(...)`` — would, and where the
plain-heap ``ReferenceEnvironment`` pops it, mixed with Timeouts,
``Event.succeed`` entries and cancellations: same callback log, same
clock, same ``seq`` count.
The open-loop arrival driver and the CPU service pool's workers, chains
of bare entries, must likewise match the generator processes they
replaced: the same entries popped at the same instants, with the same
``seq`` count after each pop.
"""

import gc
import random
import weakref

import pytest

from repro.cpu.swlib import SoftwareKernels
from repro.dsa.opcodes import Opcode
from repro.sim import Environment, Interrupt, SimulationError
from repro.sim.arrivals import open_loop
from repro.traffic.loadgen import CpuServicePool, _CpuWorker
from tests.sim.reference_engine import ReferenceEnvironment
from tests.traffic.reference_pool import ReferenceCpuServicePool

#: The engine and its frozen plain-heap oracle: both must hold the
#: calendar properties the named tests below pin.
ENGINES = [
    pytest.param(Environment, id="heap"),
    pytest.param(ReferenceEnvironment, id="reference"),
]

#: A grid with repeats so many entries share an instant: ties are where
#: a misplaced ``seq`` would show.
DELAYS = [0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 5.0, 12.5, 40.0]


# -- negative delays -------------------------------------------------------


class TestNegativeDelay:
    def _at_ten(self, action):
        """Run ``action(env)`` from a callback at t=10; return the env."""
        env = Environment()
        env.timeout(10.0).callbacks.append(lambda _ev: action(env))
        return env

    def test_succeed_rejects_negative_delay(self):
        fired = []

        def action(env):
            event = env.event()
            event.callbacks.append(lambda ev: fired.append(env.now))
            with pytest.raises(ValueError, match="negative"):
                event.succeed(delay=-5.0)
            assert not event.triggered
            event.succeed()

        env = self._at_ten(action)
        env.run()
        assert fired == [10.0]
        assert env.now == 10.0

    def test_fail_rejects_negative_delay(self):
        def action(env):
            event = env.event()
            with pytest.raises(ValueError, match="negative"):
                event.fail(RuntimeError("boom"), delay=-3.0)
            assert not event.triggered

        env = self._at_ten(action)
        env.run()
        assert env.now == 10.0

    def test_call_in_rejects_negative_delay(self):
        env = Environment()
        with pytest.raises(ValueError, match="negative"):
            env.call_in(-1.0, lambda: None)
        assert env._seq == 0


# -- differential: bare form vs Timeout form -------------------------------


def _program(seed, size=160):
    """A random forest of scheduling actions.

    Each node is ``(kind, delay, children)``; the roots are hops.  When
    a node fires it logs itself and schedules its children.  Kinds: ``hop`` and
    ``reaper`` (a bare entry in the bare form, a Timeout with one
    callback in the Timeout form), ``timeout`` and ``succeed`` (always
    Events), and ``doomed`` (a burst of far Timeouts cancelled before
    they can pop).  A reaper cancels every doomed timer still pending.
    """
    rng = random.Random(seed)
    kinds = ["hop"] * 6 + ["timeout", "succeed", "doomed", "doomed", "doomed", "reaper"]
    budget = [size]

    def node(kind):
        budget[0] -= 1
        children = []
        while kind != "doomed" and budget[0] > 0 and rng.random() < 0.6:
            children.append(node(rng.choice(kinds)))
        return (kind, rng.choice(DELAYS), children)

    roots = []
    while budget[0] > 0:
        roots.append(node("hop"))
    return roots


#: Doomed timers come in bursts and sit beyond every live entry; a
#: sweeper Timeout at ``SWEEP_AT`` cancels the ones no reaper reached.
#: A reaper cancelling a few bursts at once crosses the engine's
#: compaction threshold and compacts the calendar around the bare
#: entries.
DOOMED_BURST = 24
DOOMED_AT = 1e6
SWEEP_AT = 5e5


def _execute(program, make_env, bare):
    env = make_env()
    log = []
    doomed = []
    ids = iter(range(10**6))

    def reap():
        for timer in doomed:
            timer.cancel()
        doomed.clear()

    def schedule(node):
        kind, delay, children = node
        name = next(ids)

        def fire():
            log.append((name, kind, env.now))
            if kind == "reaper":
                reap()
            for child in children:
                schedule(child)

        if kind in ("hop", "reaper"):
            if bare:
                env.call_in(delay, fire)
            else:
                env.timeout(delay).callbacks.append(lambda _ev: fire())
        elif kind == "timeout":
            env.timeout(delay).callbacks.append(lambda _ev: fire())
        elif kind == "succeed":
            event = env.event()
            event.callbacks.append(lambda _ev: fire())
            event.succeed(delay=delay)
        else:
            for k in range(DOOMED_BURST):
                timer = env.timeout(DOOMED_AT + delay + k)
                timer.callbacks.append(lambda _ev: log.append((name, "BUG", env.now)))
                doomed.append(timer)

    for root in program:
        schedule(root)
    env.timeout(SWEEP_AT).callbacks.append(lambda _ev: reap())
    env.run()
    assert not any(kind == "BUG" for _n, kind, _t in log)
    return log, env.now, env._seq, env.stale_timers


@pytest.mark.parametrize("seed", range(12), ids="heap-{}".format)
def test_bare_form_matches_timeout_form(monkeypatch, seed):
    compactions = []
    compact = Environment._compact

    def counting_compact(env):
        compactions.append(env)
        compact(env)

    monkeypatch.setattr(Environment, "_compact", counting_compact)
    program = _program(seed)
    reference = _execute(program, ReferenceEnvironment, bare=True)
    timeout_form = _execute(program, Environment, bare=False)
    del compactions[:]
    bare_form = _execute(program, Environment, bare=True)
    assert compactions  # cancel-triggered, with bare entries pending
    assert bare_form == timeout_form == reference
    fired = {kind for _n, kind, _t in bare_form[0]}
    assert fired == {"hop", "timeout", "succeed", "reaper"}
    assert bare_form[3] > 0  # doomed timers were cancelled and swept


# -- compaction, peek, step and run(until=) --------------------------------


@pytest.mark.parametrize("make_env", ENGINES)
def test_cancel_compaction_keeps_bare_entries(make_env):
    env = make_env()
    fired = []
    for i in range(100):
        env.call_in(float(i % 7), lambda i=i: fired.append(i))
    timers = [env.timeout(3.0 + i) for i in range(200)]
    for timer in timers:
        timer.cancel()
    assert env.stale_timers > 0  # swept in bulk, not popped
    env.run()
    assert sorted(fired) == list(range(100))
    assert fired == sorted(range(100), key=lambda i: (i % 7, i))
    assert env.now == 6.0
    assert env.stale_timers == 200


@pytest.mark.parametrize("make_env", ENGINES)
def test_peek_skips_dead_head_onto_bare_entry(make_env):
    env = make_env()
    env.timeout(3.0).cancel()
    env.call_in(5.0, lambda: None)
    assert env.peek() == 5.0


@pytest.mark.parametrize("make_env", ENGINES)
def test_step_runs_a_bare_head(make_env):
    env = make_env()
    fired = []
    env.timeout(1.0).cancel()
    env.call_in(2.0, lambda: fired.append(env.now))
    env.call_in(4.0, lambda: fired.append(env.now))
    env.step()
    assert fired == [2.0] and env.now == 2.0
    env.step()
    assert fired == [2.0, 4.0] and env.now == 4.0


@pytest.mark.parametrize("make_env", ENGINES)
def test_run_until_lands_on_a_bare_head(make_env):
    env = make_env()
    fired = []
    env.call_in(5.0, lambda: fired.append(env.now))
    env.call_in(9.0, lambda: fired.append(env.now))
    env.run(until=4.5)
    assert fired == [] and env.now == 4.5
    env.run(until=5.0)  # an entry exactly at ``until`` runs
    assert fired == [5.0] and env.now == 5.0
    env.run()
    assert fired == [5.0, 9.0] and env.now == 9.0


def test_bare_entry_exception_propagates():
    env = Environment()

    def boom():
        raise KeyError("model bug")

    env.call_in(1.0, boom)
    with pytest.raises(KeyError):
        env.run()
    assert env.now == 1.0


# -- the open-loop driver --------------------------------------------------


def _generator_open_loop(env, source, handler, count=None, until=None, start=0.0):
    """The generator-process form of ``open_loop``: the reference."""

    def driver():
        delivered = 0
        try:
            if start > 0.0:
                yield env.timeout(start)
            while count is None or delivered < count:
                gap = source.next_gap()
                if until is not None and env.now + gap > until:
                    break
                yield env.timeout(gap)
                handler(delivered, env.now)
                delivered += 1
        except Interrupt:
            pass
        return delivered

    return env.process(driver())


class _GridGaps:
    """Gaps on a coarse grid, so arrivals tie with the other entries."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def next_gap(self):
        return self.rng.choice([0.0, 1.0, 2.0, 5.0])


def _drive_open_loop(make_driver, seed):
    rng = random.Random(seed)
    count = rng.choice([None, 0, 1, 7, 30])
    until = rng.choice([None, 20.0, 60.0]) if count is not None else 40.0
    start = rng.choice([0.0, 0.0, 3.0])
    stop_at = rng.choice([None, 0, 4])
    env = Environment()
    log = []
    driver = None

    def handler(index, now):
        log.append(("arrival", index, now))
        env.timeout(rng.choice([0.0, 1.0])).callbacks.append(
            lambda _ev: log.append(("served", index, env.now))
        )
        if index == stop_at:
            driver.interrupt("stop")

    def waiter():
        delivered = yield driver
        log.append(("exit", delivered, env.now))

    driver = make_driver(env, _GridGaps(seed), handler, count=count, until=until, start=start)
    env.process(waiter())
    for t in (0.0, 2.0, 3.0, 9.0):
        env.timeout(t).callbacks.append(lambda _ev, t=t: log.append(("tick", t, env.now)))
    env.run()
    return log, env.now, env._seq, driver.value


@pytest.mark.parametrize("seed", range(40))
def test_open_loop_matches_generator_form(seed):
    assert _drive_open_loop(open_loop, seed) == _drive_open_loop(_generator_open_loop, seed)


def test_open_loop_interrupted_while_waiting_for_start():
    env = Environment()
    hits = []
    driver = open_loop(env, _GridGaps(0), lambda i, t: hits.append(t), count=5, start=10.0)
    env.timeout(4.0).callbacks.append(lambda _ev: driver.interrupt())
    env.run()
    assert hits == [] and driver.value == 0
    assert env.now == 10.0  # the abandoned start timer still pops
    driver.interrupt()  # a stopped driver ignores further interrupts


def test_open_loop_handler_error_fails_the_driver():
    env = Environment()

    def handler(index, now):
        if index == 2:
            raise KeyError("model bug")

    driver = open_loop(env, _GridGaps(1), handler, count=10)
    with pytest.raises(KeyError):
        env.run()
    assert driver.triggered and not driver.ok


def test_open_loop_driver_cannot_be_cancelled():
    env = Environment()
    driver = open_loop(env, _GridGaps(2), lambda i, t: None, count=3)
    with pytest.raises(SimulationError, match="interrupt"):
        driver.cancel()
    env.run()
    assert driver.value == 3


def test_finished_driver_releases_its_handler():
    # A handler closing over the model that holds its driver makes a
    # cycle; a stopped driver must break it, or every finished sweep
    # point stays alive until a full garbage collection.
    class Model:
        def on_arrival(self, index, now):
            pass

    env = Environment()
    model = Model()
    model.driver = open_loop(env, _GridGaps(3), model.on_arrival, count=3)
    env.run()
    assert model.driver.value == 3
    alive = weakref.ref(model)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del model
        assert alive() is None  # freed by reference counting alone
    finally:
        if enabled:
            gc.enable()


# -- the CPU service pool --------------------------------------------------


class _GridKernels:
    """Service times on the arrivals' grid, so a worker often finishes
    at the instant another is woken: the woken one then finds the
    backlog already taken."""

    def time(self, opcode, size, in_llc=False):
        return {64: 0.0, 4096: 1.0, 65536: 5.0, 1 << 20: 50.0}[size] * (1 + in_llc)


def _drive_pool(make_pool, seed):
    """Random arrivals into a pool of 1–4 workers with a small backlog,
    stepped one calendar pop at a time.

    Arrivals sit on a coarse grid (several per instant, some before the
    workers' start-up entries pop) among unrelated ticks; service times
    sit on the same grid.  Returns the pop log — the clock, ``seq``
    count, served and backlog after every pop — the admission and
    completion log, and the pool's counters and gauge.
    """
    rng = random.Random(seed)
    env = Environment()
    pool = make_pool(env, _GridKernels(), cores=rng.randint(1, 4), queue_limit=rng.randint(1, 6))
    log = []

    def arrive(index):
        size = rng.choice([64, 4096, 65536, 1 << 20])
        done = pool.try_submit(Opcode.MEMMOVE, size, in_llc=rng.random() < 0.3)
        if done is None:
            log.append(("shed", index, env.now))
            return
        log.append(("admitted", index, env.now, pool.depth))
        done.callbacks.append(lambda ev: log.append(("done", index, env.now, ev.value)))

    for index in range(rng.randint(0, 3)):
        arrive(index)  # before any worker's start-up entry pops
    for index in range(3, 120):
        delay = rng.choice([0.0, 1.0, 2.0, 5.0, 50.0]) * rng.randint(0, 20)
        env.call_in(delay, lambda index=index: arrive(index))
    for t in (0.0, 10.0, 200.0):
        env.timeout(t).callbacks.append(lambda _ev, t=t: log.append(("tick", t, env.now)))
    pops = []
    while env.peek() != float("inf"):
        env.step()
        pops.append((env.now, env._seq, pool.served, pool.depth))
    depth = env.metrics.gauge("cpu_pool.depth")
    counters = (pool.admitted, pool.shed, pool.served, len(pool._idle))
    return pops, log, counters, (depth.level, depth.maximum, depth.mean(env.now))


@pytest.mark.parametrize("seed", range(40))
def test_cpu_pool_matches_generator_form(seed):
    bare = _drive_pool(CpuServicePool, seed)
    assert bare == _drive_pool(ReferenceCpuServicePool, seed)
    assert any(entry[0] == "done" for entry in bare[1])


def test_cpu_pool_with_calibrated_kernels_matches_generator_form():
    runs = []
    for make_pool in (CpuServicePool, ReferenceCpuServicePool):
        env = Environment()
        pool = make_pool(env, SoftwareKernels(), cores=2, queue_limit=4)
        dones = []
        for index in range(40):
            size = (64, 4096, 65536)[index % 3]
            env.call_in(37.0 * index, lambda size=size: dones.append(
                pool.try_submit(Opcode.MEMMOVE, size)))
        env.run()
        values = [None if done is None else done.value for done in dones]
        runs.append((values, env.now, env._seq, pool.served, pool.shed))
    assert runs[0] == runs[1]
    assert runs[0][4] > 0 and runs[0][3] > 0


def test_cpu_pool_schedules_cover_the_cases(monkeypatch):
    """Across the seeds above: sheds, a backlog, and a woken worker that
    finds the backlog already taken."""
    seen = set()
    woken = set()
    submit, next_ = CpuServicePool.try_submit, _CpuWorker.next

    def recording_submit(self, *args, **kwargs):
        idle = list(self._idle)
        done = submit(self, *args, **kwargs)
        woken.update(worker for worker in idle if worker not in self._idle)
        return done

    def recording_next(self):
        if self in woken:
            woken.discard(self)
            if not self.pool._queue:
                seen.add("woken to an empty backlog")
        next_(self)

    monkeypatch.setattr(CpuServicePool, "try_submit", recording_submit)
    monkeypatch.setattr(_CpuWorker, "next", recording_next)
    for seed in range(40):
        _pops, log, (admitted, shed, served, idle), _gauge = _drive_pool(CpuServicePool, seed)
        assert admitted == served and idle >= 1
        if shed:
            seen.add("shed")
        if any(entry[0] == "admitted" and entry[3] > 1 for entry in log):
            seen.add("backlog")
    assert seen == {"shed", "backlog", "woken to an empty backlog"}
