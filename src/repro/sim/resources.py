"""Queueing primitives built on the event kernel.

* :class:`Resource` — counted resource with FIFO request queue (models
  work-queue slots, DMA channels, lock ownership, ...).
* :class:`Store` — FIFO buffer of Python objects with optional capacity
  (models descriptor queues, rings, mailboxes).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.sim.engine import Environment, Event


class Request(Event):
    """Pending acquisition of one resource slot (yieldable)."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource


class Resource:
    """``capacity`` interchangeable slots with a FIFO waiter queue."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: List[Request] = []

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def available(self) -> int:
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def request(self) -> Request:
        """Return an event that triggers once a slot is held."""
        req = Request(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req.succeed(self)
        else:
            self._waiters.append(req)
        return req

    def release(self) -> None:
        """Free one held slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError("release() without a held slot")
        if self._waiters:
            self._waiters.pop(0).succeed(self)
        else:
            self._in_use -= 1

    def cancel(self, request: Request) -> None:
        """Withdraw a not-yet-granted request from the waiter queue."""
        try:
            self._waiters.remove(request)
        except ValueError:
            pass


class Store:
    """FIFO object buffer.  ``put``/``get`` return yieldable events."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: List[Any] = []
        self._getters: List[Event] = []
        self._putters: List[Tuple[Event, Any]] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> List[Any]:
        """Snapshot of buffered items (oldest first)."""
        return list(self._items)

    def put(self, item: Any) -> Event:
        ev = Event(self.env)
        if self._getters:
            self._getters.pop(0).succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the store is full."""
        if self._getters:
            self._getters.pop(0).succeed(item)
            return True
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return True
        return False

    def get(self) -> Event:
        ev = Event(self.env)
        if self._items:
            ev.succeed(self._items.pop(0))
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> Tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item)``."""
        if self._items:
            item = self._items.pop(0)
            self._admit_putter()
            return True, item
        return False, None

    def _admit_putter(self) -> None:
        if self._putters and (self.capacity is None or len(self._items) < self.capacity):
            ev, item = self._putters.pop(0)
            self._items.append(item)
            ev.succeed()
