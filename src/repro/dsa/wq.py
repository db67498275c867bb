"""On-device work queues (dedicated and shared).

A WQ holds submitted descriptors until the group arbiter dispatches
them.  The submission contract mirrors hardware:

* **DWQ** — software owns the queue and must track occupancy; writing a
  descriptor into a full DWQ is a software bug and raises
  :class:`~repro.dsa.errors.SubmissionError`.
* **SWQ** — ENQCMD returns a retry status when the queue is full;
  :meth:`WorkQueue.submit` returns ``False`` and the submitter retries.

Observability: each queue keeps a time-weighted occupancy gauge and
enqueue/reject counters under ``<owner>.wq<id>.*`` in the environment's
metrics registry, and opens a ``queue`` span on the descriptor's trace
track from enqueue until the arbiter dispatches it.

Per-submitter attribution: SWQs are *shared* — hundreds of tenants can
ENQCMD into one queue, and a global reject/retry count cannot say who
a retry storm is punishing.  :meth:`WorkQueue.submit` takes an optional
``source`` tag and :meth:`WorkQueue.record_retries` is the one place
retry counters are named, so both the aggregate family
(``<owner>.wq<id>.enqcmd_retries`` / ``.rejected``) and the per-source
family (``<owner>.wq<id>.source.<tag>.enqcmd_retries`` / ``.rejected``)
stay on the OBSERVABILITY.md naming convention instead of being
re-derived by every submitter.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Union

from repro.dsa.config import WqConfig, WqMode
from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.errors import SubmissionError
from repro.faults import inject
from repro.obs.metrics import Counter
from repro.sim.engine import Environment

Descriptor = Union[WorkDescriptor, BatchDescriptor]


class WorkQueue:
    """Bounded descriptor queue with an enqueue notification hook."""

    __slots__ = (
        "env",
        "config",
        "name",
        "_shared",
        "_size",
        "_items",
        "on_enqueue",
        "enqueued",
        "rejected",
        "_m_occupancy",
        "_m_enqueued",
        "_m_rejected",
        "_m_injected_rejects",
        "_m_retries",
        "_m_source_rejected",
        "_m_source_retries",
    )

    def __init__(self, env: Environment, config: WqConfig, owner: str = "dsa"):
        config.validate()
        self.env = env
        self.config = config
        self.name = f"{owner}.wq{config.wq_id}"
        #: Read once: a WQ keeps its (frozen) config for life.
        self._shared = config.mode is WqMode.SHARED
        self._size = config.size
        # deque: pop() drains from the head; list.pop(0) made large-WQ
        # drains quadratic.
        self._items: Deque[Descriptor] = deque()
        #: Fired on a successful enqueue while set.  The group's arbiter
        #: sets it only while a PE waits for work (see
        #: :class:`~repro.dsa.arbiter.GroupArbiter`).
        self.on_enqueue: Optional[Callable[["WorkQueue"], None]] = None
        self.enqueued = 0
        self.rejected = 0
        metrics = env.metrics
        self._m_occupancy = metrics.gauge(f"{self.name}.occupancy")
        self._m_enqueued = metrics.counter(f"{self.name}.enqueued")
        self._m_rejected = metrics.counter(f"{self.name}.rejected")
        # Made on their first event, so a queue that never sees one
        # publishes no such name.
        self._m_injected_rejects: Optional[Counter] = None
        self._m_retries: Optional[Counter] = None
        #: Source tag -> its ``.rejected`` / ``.enqcmd_retries`` counter.
        self._m_source_rejected: Dict[str, Counter] = {}
        self._m_source_retries: Dict[str, Counter] = {}

    @property
    def wq_id(self) -> int:
        return self.config.wq_id

    @property
    def mode(self) -> WqMode:
        return self.config.mode

    @property
    def priority(self) -> int:
        return self.config.priority

    @property
    def size(self) -> int:
        return self.config.size

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self._size

    @property
    def is_empty(self) -> bool:
        return not self._items

    def submit(self, descriptor: Descriptor, source: Optional[str] = None) -> bool:
        """Enqueue one descriptor; semantics depend on the WQ mode.

        ``source`` tags the submitter (a tenant, a core, a runtime
        layer) so rejects are attributable per submitter on a shared
        queue; ``None`` keeps the aggregate-only accounting.
        """
        shared = self._shared
        if shared:
            injector = inject.active
            if injector is not None and injector.swq_reject():
                # Injected congestion: bounce the ENQCMD as if full.
                self.rejected += 1
                self._m_rejected.value += 1
                if self._m_injected_rejects is None:
                    self._m_injected_rejects = self.env.metrics.counter(
                        f"{self.name}.injected_rejects"
                    )
                self._m_injected_rejects.add()
                if source is not None:
                    self._source_counter(self._m_source_rejected, source, "rejected").add()
                return False
        items = self._items
        if len(items) >= self._size:
            self.rejected += 1
            self._m_rejected.value += 1
            if source is not None:
                counter = self._m_source_rejected.get(source)
                if counter is None:
                    counter = self._source_counter(self._m_source_rejected, source, "rejected")
                counter.value += 1
            if not shared:
                raise SubmissionError(
                    f"MOVDIR64B to full DWQ {self.wq_id} "
                    f"({self.occupancy}/{self.size} entries) — software must "
                    "track DWQ credits"
                )
            return False  # ENQCMD retry indication
        env = self.env
        now = env._now
        descriptor.times.submitted = now
        items.append(descriptor)
        self.enqueued += 1
        self._m_enqueued.value += 1
        self._m_occupancy.update(now, len(items))
        tracer = env.tracer
        if tracer.enabled:
            if descriptor.trace_track < 0:
                descriptor.trace_track = tracer.next_track()
            tracer.begin(now, "queued", "queue", self.name, descriptor.trace_track)
        on_enqueue = self.on_enqueue
        if on_enqueue is not None:
            on_enqueue(self)
        return True

    def record_retries(self, retries: int, source: Optional[str] = None) -> None:
        """Book ``retries`` failed ENQCMDs against this queue.

        The canonical naming choke point for the retry metric family:
        submitters (``repro.runtime.submit``, the traffic load
        generator) call this instead of assembling
        ``<owner>.wq<id>.enqcmd_retries`` strings themselves, and a
        ``source`` tag adds the per-submitter series alongside the
        aggregate.  Zero-retry submissions are free — no counter is
        created.
        """
        if retries <= 0:
            return
        if self._m_retries is None:
            self._m_retries = self.env.metrics.counter(f"{self.name}.enqcmd_retries")
        self._m_retries.add(retries)
        if source is not None:
            self._source_counter(self._m_source_retries, source, "enqcmd_retries").add(
                retries
            )

    def _source_counter(self, counters: Dict[str, Counter], source: str, leaf: str) -> Counter:
        """The ``source.<source>.<leaf>`` counter, made on first use."""
        counter = counters.get(source)
        if counter is None:
            counter = counters[source] = self.env.metrics.counter(
                f"{self.name}.source.{source}.{leaf}"
            )
        return counter

    def pop(self) -> Descriptor:
        """Remove and return the head descriptor (arbiter only)."""
        if not self._items:
            raise RuntimeError(f"pop from empty WQ {self.wq_id}")
        descriptor = self._items.popleft()
        env = self.env
        now = env._now
        self._m_occupancy.update(now, len(self._items))
        tracer = env.tracer
        if tracer.enabled and descriptor.trace_track >= 0:
            tracer.end(now, "queued", "queue", self.name, descriptor.trace_track)
        return descriptor
