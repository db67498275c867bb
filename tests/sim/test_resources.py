"""Unit tests for Resource / Store."""

import pytest

from repro.sim import Environment, Resource, Store


def run(env):
    env.run()


class TestResource:
    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_below_capacity(self):
        env = Environment()
        res = Resource(env, capacity=2)
        granted = []

        def proc(env):
            yield res.request()
            granted.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        run(env)
        assert granted == [0.0, 0.0]
        assert res.in_use == 2
        assert res.available == 0

    def test_waiters_block_until_release(self):
        env = Environment()
        res = Resource(env, capacity=1)
        log = []

        def holder(env):
            yield res.request()
            log.append(("hold", env.now))
            yield env.timeout(10.0)
            res.release()

        def waiter(env):
            yield env.timeout(1.0)
            yield res.request()
            log.append(("acquire", env.now))
            res.release()

        env.process(holder(env))
        env.process(waiter(env))
        run(env)
        assert log == [("hold", 0.0), ("acquire", 10.0)]

    def test_fifo_ordering_of_waiters(self):
        env = Environment()
        res = Resource(env, capacity=1)
        order = []

        def holder(env):
            yield res.request()
            yield env.timeout(5.0)
            res.release()

        def waiter(env, tag, delay):
            yield env.timeout(delay)
            yield res.request()
            order.append(tag)
            res.release()

        env.process(holder(env))
        env.process(waiter(env, "first", 1.0))
        env.process(waiter(env, "second", 2.0))
        run(env)
        assert order == ["first", "second"]

    def test_release_without_hold_raises(self):
        env = Environment()
        res = Resource(env)
        with pytest.raises(RuntimeError):
            res.release()

    def test_queue_length_tracks_waiters(self):
        env = Environment()
        res = Resource(env, capacity=1)
        res.request()
        res.request()
        res.request()
        assert res.queue_length == 2

    def test_cancel_removes_waiter(self):
        env = Environment()
        res = Resource(env, capacity=1)
        res.request()
        pending = res.request()
        res.cancel(pending)
        assert res.queue_length == 0


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append(item)

        store.put("x")
        env.process(consumer(env))
        run(env)
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((env.now, item))

        def producer(env):
            yield env.timeout(3.0)
            yield store.put("late")

        env.process(consumer(env))
        env.process(producer(env))
        run(env)
        assert got == [(3.0, "late")]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        for i in range(4):
            store.put(i)
        out = []

        def consumer(env):
            for _ in range(4):
                out.append((yield store.get()))

        env.process(consumer(env))
        run(env)
        assert out == [0, 1, 2, 3]

    def test_capacity_blocks_putter(self):
        env = Environment()
        store = Store(env, capacity=1)
        times = []

        def producer(env):
            yield store.put("a")
            times.append(("a", env.now))
            yield store.put("b")
            times.append(("b", env.now))

        def consumer(env):
            yield env.timeout(5.0)
            yield store.get()

        env.process(producer(env))
        env.process(consumer(env))
        run(env)
        assert times == [("a", 0.0), ("b", 5.0)]

    def test_try_put_respects_capacity(self):
        env = Environment()
        store = Store(env, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert len(store) == 2

    def test_try_get_nonblocking(self):
        env = Environment()
        store = Store(env)
        ok, item = store.try_get()
        assert not ok and item is None
        store.put("y")
        ok, item = store.try_get()
        assert ok and item == "y"

    def test_items_snapshot(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        assert store.items == [1, 2]

    def test_capacity_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            Store(env, capacity=0)
