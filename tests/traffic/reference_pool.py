"""The generator-process CPU service pool, frozen as an oracle.

``repro.traffic.loadgen.CpuServicePool`` runs each worker core as a
chain of bare calendar entries.  ``ReferenceCpuServicePool`` below is
the pool those entries replaced, kept as it was: one generator
:class:`~repro.sim.engine.Process` per core that parks on a fresh
one-shot event when the backlog is empty, is woken by ``try_submit``
(newest parked worker first) and yields a timeout per service.  The
differential test in ``tests/sim/test_bare_entries.py`` runs both on
the same arrivals and requires the same pops, clock and ``seq`` count.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.cpu.swlib import SoftwareKernels
from repro.dsa.opcodes import Opcode
from repro.sim.engine import Environment, Event


class ReferenceCpuServicePool:
    def __init__(
        self,
        env: Environment,
        kernels: SoftwareKernels,
        cores: int = 2,
        queue_limit: int = 256,
        name: str = "cpu_pool",
    ):
        if cores < 1:
            raise ValueError(f"need at least one worker core, got {cores}")
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        self.env = env
        self.kernels = kernels
        self.cores = cores
        self.queue_limit = queue_limit
        self.name = name
        self._queue: Deque[Tuple[float, Event]] = deque()
        self._idle: List[Event] = []
        self.admitted = 0
        self.shed = 0
        self.served = 0
        self._m_shed = env.metrics.counter(f"{name}.shed")
        self._m_depth = env.metrics.gauge(f"{name}.depth")
        for _ in range(cores):
            env.process(self._worker(), name=f"{name}.worker")

    @property
    def depth(self) -> int:
        return len(self._queue)

    def try_submit(self, opcode: Opcode, size: int, in_llc: bool = False) -> Optional[Event]:
        if len(self._queue) >= self.queue_limit:
            self.shed += 1
            self._m_shed.add()
            return None
        done = Event(self.env)
        self._queue.append((self.kernels.time(opcode, size, in_llc=in_llc), done))
        self.admitted += 1
        self._m_depth.update(self.env._now, len(self._queue))
        if self._idle:
            self._idle.pop().succeed(None)
        return done

    def _worker(self):
        env = self.env
        while True:
            while not self._queue:
                wake = Event(env)
                self._idle.append(wake)
                yield wake
            service_ns, done = self._queue.popleft()
            self._m_depth.update(env._now, len(self._queue))
            yield env.timeout(service_ns)
            self.served += 1
            done.succeed(env._now)
