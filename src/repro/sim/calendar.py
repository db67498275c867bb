"""Hierarchical timing-wheel calendar: the engine's high-pending-count backend.

The engine's default calendar is a binary heap of ``(when, priority,
seq, event)`` entries — optimal at the few-thousand pending timers of a
closed-loop microbench, but every push and pop costs ``O(log n)`` tuple
comparisons, and at the millions of *concurrent* pending timers of an
open-loop traffic run the log factor plus per-comparison interpreter
overhead dominates the whole simulation.

:class:`TimingWheel` replaces the heap with a two-level timing wheel
plus a far-future overflow, giving amortized O(1) schedule and pop:

* **Level 0 (fine)** — buckets of width ``tick`` simulated nanoseconds,
  keyed by absolute slot index ``floor(when / tick)``.  A push is a
  dict lookup and a list append; a pop drains the minimum-slot bucket
  in fully sorted ``(when, priority, seq)`` order, so the wheel pops in
  *exactly* the order the heap would (FIFO tie-break included).
* **Level 1 (coarse)** — buckets of ``SLOTS_PER_LEVEL`` fine ticks.
  When the fine level drains past a coarse boundary, the next coarse
  bucket cascades: its entries are re-binned into fine slots in one
  O(bucket) pass.  Each entry cascades at most once.
* **Far overflow** — entries beyond the coarse horizon (``SLOTS_PER_
  LEVEL**2`` ticks ahead) wait in a flat list and re-bin lazily as the
  horizon advances.  With a calibrated tick this level is almost never
  touched.

Non-empty slots are tracked in per-level min-heaps of slot *indices* —
integers, and at most one entry per occupied slot — so finding the
next bucket never scans empty slots and never approaches the size of
the event heap it replaces.

The tick is calibrated from the first observed entries (span divided
by pending count times a target bucket occupancy), which matches the
two ways a wheel comes to exist: built empty by ``--calendar wheel``
(calibrates on the first pop, usually after the experiment preloaded
its arrival schedule) or promoted from a heap by ``--calendar auto``
(calibrates over the tens of thousands of entries that triggered the
promotion).

The process-wide default backend lives here too (a run installs it
from :class:`repro.exec.config.RunConfig`; :func:`set_default_calendar`
sets it alone) — ``heap`` (the byte-identical default), ``wheel``, or
``auto`` (start on the heap, promote past
:data:`AUTO_PROMOTE_THRESHOLD` pending entries).
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

#: Calendar backends selectable via ``--calendar`` / ``Environment(calendar=)``.
CALENDAR_BACKENDS = ("heap", "wheel", "auto")

#: ``auto`` promotes a heap calendar to a wheel once this many entries
#: are pending at once.  Closed-loop experiment sweeps stay far below
#: it (they run at queue-depth pending counts), so ``auto`` is a no-op
#: for the paper's figures; open-loop arrival preloads blow past it.
AUTO_PROMOTE_THRESHOLD = 65536

#: Fine slots per coarse slot.  Deliberately huge: with a calibrated
#: tick the fine level alone covers ~``SLOTS_PER_LEVEL * TARGET_
#: OCCUPANCY`` pending entries (tens of millions), so the coarse and
#: far levels are a safety valve against pathological spans (a handful
#: of timers parked eons ahead of a dense cluster), not a tax on the
#: common case — a cascade touches every entry a second time, and the
#: wheel wins precisely by touching each entry once.
SLOTS_PER_LEVEL = 1 << 20

#: Tick calibration aims for this many entries per fine bucket.
TARGET_OCCUPANCY = 16.0

#: Entries buffered before the tick self-calibrates (a pop calibrates
#: earlier regardless, with whatever has been seen).
CALIBRATE_AT = 8192

_default_backend = "heap"


def set_default_calendar(backend: str) -> None:
    """Install the process-wide default for ``Environment(calendar=None)``.

    A run installs ``--calendar`` through its
    :class:`~repro.exec.config.RunConfig`; this sets the one knob.
    """
    global _default_backend
    if backend not in CALENDAR_BACKENDS:
        raise ValueError(
            f"unknown calendar backend {backend!r}; choose from {CALENDAR_BACKENDS}"
        )
    _default_backend = backend


def default_calendar() -> str:
    """The backend ``Environment(calendar=None)`` resolves to right now."""
    return _default_backend


#: Calendar entry shape shared with the engine's heap path.
Entry = Tuple[float, int, int, object]


class TimingWheel:
    """Two-level timing wheel with far overflow; pops in heap order.

    Entries are the engine's ``(when, priority, seq, item)`` tuples,
    where the item is an event or a bare entry's callable.
    ``push`` is amortized O(1); ``pop_due`` returns entries in exact
    ``(when, priority, seq)`` order, the same total order a binary heap
    of the same tuples produces.  Cancelled-entry discard stays the
    engine's job — the wheel only stores and orders.
    """

    __slots__ = (
        "_tick",
        "_inv_tick",
        "_target",
        "_pre",
        "_count",
        "_fine",
        "_fine_slots",
        "_coarse",
        "_coarse_slots",
        "_far",
        "_coarse_base",
        "_far_base",
        "_cur_bucket",
        "_cur_pos",
        "_synced_pos",
        "_cur_slot",
    )

    def __init__(self, tick: Optional[float] = None, target_occupancy: float = TARGET_OCCUPANCY):
        if tick is not None and tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        if target_occupancy <= 0:
            raise ValueError(f"target occupancy must be positive, got {target_occupancy}")
        self._tick = tick
        # Slot indexing multiplies by the cached reciprocal instead of
        # dividing — same monotone when->slot map as long as every site
        # uses it, and measurably cheaper in the per-push hot path.
        self._inv_tick = (1.0 / tick) if tick is not None else None
        self._target = target_occupancy
        #: Entries buffered before calibration picks a tick.
        self._pre: List[Entry] = []
        self._count = 0
        #: Level 0: absolute fine slot -> unsorted entry list.
        self._fine: dict = {}
        self._fine_slots: List[int] = []  # min-heap of occupied fine slots
        #: Level 1: absolute coarse slot -> unsorted entry list.
        self._coarse: dict = {}
        self._coarse_slots: List[int] = []
        #: Beyond the coarse horizon; re-binned lazily.
        self._far: List[Entry] = []
        #: Fine slots < _coarse_base live at level 0; coarse slots <
        #: _far_base live at level 1.  Both advance monotonically.  An
        #: explicit tick skips calibration entirely, so set the windows
        #: the way _calibrate would at base 0.
        if tick is not None:
            self._coarse_base = SLOTS_PER_LEVEL
            self._far_base = SLOTS_PER_LEVEL + 1
        else:
            self._coarse_base = 0
            self._far_base = 0
        #: The bucket currently being drained, sorted, consumed by index
        #: (popped positions are cleared to drop the tuple reference).
        self._cur_bucket: Optional[List] = None
        self._cur_pos = 0
        #: The drain cursor ``_count`` already accounts for.  The engine's
        #: run loop advances ``_cur_pos`` per entry but settles ``_count``
        #: once per bucket, so the entries in between are still counted.
        self._synced_pos = 0
        self._cur_slot = -1

    def __len__(self) -> int:
        """Pending entries, exact even while a run loop drains a bucket."""
        return self._count - (self._cur_pos - self._synced_pos)

    @property
    def tick(self) -> Optional[float]:
        """Calibrated bucket width in simulated time (None before use)."""
        return self._tick

    # -- calibration -----------------------------------------------------
    def _calibrate(self) -> None:
        """Pick a tick from the buffered entries and bin them."""
        entries = self._pre
        if self._tick is None:
            if entries:
                times = [entry[0] for entry in entries]
                span = max(times) - min(times)
                buckets = max(1.0, len(entries) / self._target)
                self._tick = (span / buckets) if span > 0 else 1.0
            else:
                self._tick = 1.0
        self._inv_tick = 1.0 / self._tick
        inv = self._inv_tick
        if entries:
            base = int(min(entry[0] for entry in entries) * inv)
        else:
            base = 0
        # First window: everything within SLOTS_PER_LEVEL ticks of the
        # earliest entry is fine-binned; the horizon advances by whole
        # coarse slots from there.
        self._coarse_base = (base // SLOTS_PER_LEVEL + 1) * SLOTS_PER_LEVEL
        self._far_base = self._coarse_base // SLOTS_PER_LEVEL + SLOTS_PER_LEVEL
        self._pre = []
        for entry in entries:
            self._place(entry)

    def _place(self, entry: Entry) -> None:
        """Bin one entry into the correct level (tick already set)."""
        slot = int(entry[0] * self._inv_tick)
        if slot < self._coarse_base:
            bucket = self._fine.get(slot)
            if bucket is None:
                self._fine[slot] = [entry]
                heappush(self._fine_slots, slot)
            else:
                bucket.append(entry)
            return
        coarse = slot // SLOTS_PER_LEVEL
        if coarse < self._far_base:
            bucket = self._coarse.get(coarse)
            if bucket is None:
                self._coarse[coarse] = [entry]
                heappush(self._coarse_slots, coarse)
            else:
                bucket.append(entry)
            return
        self._far.append(entry)

    # -- writes ----------------------------------------------------------
    def push(self, entry: Entry) -> None:
        """Add one entry; amortized O(1).

        The body is flat on purpose — this is one of the two per-event
        costs of the whole backend.  ``_inv_tick is None`` doubles as
        the not-yet-calibrated sentinel, the common fine-level bin is
        inlined, and only coarse/far routing drops to :meth:`_place`.
        """
        self._count += 1
        inv = self._inv_tick
        if inv is None:
            self._pre.append(entry)
            if len(self._pre) >= CALIBRATE_AT:
                self._calibrate()
            return
        slot = int(entry[0] * inv)
        if slot == self._cur_slot:
            # Scheduling into the bucket being drained (a delay-zero
            # event, a same-tick re-arm): insert in sorted position at
            # or after the drain cursor.  Entries behind the cursor were
            # already popped and compare no greater than this one, so
            # ``lo=_cur_pos`` is both safe and required — the slots
            # behind the cursor are cleared to None.  (``_cur_slot`` is
            # -1 whenever no bucket is being drained, and real slots are
            # never negative, so no bucket check is needed.)
            insort(self._cur_bucket, entry, lo=self._cur_pos)
            return
        if slot < self._coarse_base:
            bucket = self._fine.get(slot)
            if bucket is None:
                self._fine[slot] = [entry]
                heappush(self._fine_slots, slot)
            else:
                bucket.append(entry)
            return
        self._place(entry)

    # -- reads -----------------------------------------------------------
    def _materialize_next(self) -> bool:
        """Sort the next non-empty bucket as the current one.

        Returns False when the wheel is empty.  Cascades coarse and far
        levels down as their boundaries are reached.
        """
        # Settle what the drained bucket consumed before the cursor moves.
        self._count -= self._cur_pos - self._synced_pos
        self._synced_pos = self._cur_pos
        while True:
            slots = self._fine_slots
            fine = self._fine
            if slots:
                slot = heappop(slots)
                bucket = fine.pop(slot)
                bucket.sort()
                self._cur_slot = slot
                self._cur_bucket = bucket
                self._cur_pos = 0
                self._synced_pos = 0
                return True
            if self._coarse_slots:
                # Cascade one coarse bucket into fine slots.  The fine
                # window advances to this coarse span; pushes landing
                # before it (delay-zero events at the current time)
                # still fine-bin correctly because routing compares
                # against _coarse_base, not a window start.
                coarse = heappop(self._coarse_slots)
                bucket = self._coarse.pop(coarse)
                self._coarse_base = (coarse + 1) * SLOTS_PER_LEVEL
                for entry in bucket:
                    self._place(entry)
                continue
            if self._far:
                # Advance the far horizon one level-1 span and re-bin
                # what fell inside it; repeat if the far list was
                # entirely beyond even that.
                far = self._far
                inv = self._inv_tick
                base = min(int(e[0] * inv) // SLOTS_PER_LEVEL for e in far)
                self._far_base = base + SLOTS_PER_LEVEL
                self._coarse_base = base * SLOTS_PER_LEVEL
                self._far = []
                for entry in far:
                    self._place(entry)
                continue
            self._cur_bucket = None
            self._cur_slot = -1
            return False

    def peek(self) -> Optional[Entry]:
        """The next entry in pop order, without consuming it."""
        bucket = self._cur_bucket
        if bucket is None or self._cur_pos >= len(bucket):
            if self._tick is None:
                self._calibrate()
            if not self._materialize_next():
                return None
            bucket = self._cur_bucket
        return bucket[self._cur_pos]

    def pop_due(self, limit: float) -> Optional[Entry]:
        """Consume and return the next entry if its time is <= ``limit``.

        Returns None when the wheel is empty or the head entry (live or
        cancelled — the engine's ``run(until=...)`` contract inspects
        the head regardless) lies beyond ``limit``.
        """
        bucket = self._cur_bucket
        pos = self._cur_pos
        if bucket is None or pos >= len(bucket):
            if self._tick is None:
                self._calibrate()
            if not self._materialize_next():
                return None
            bucket = self._cur_bucket
            pos = 0
        entry = bucket[pos]
        if entry[0] > limit:
            return None
        # Clear the consumed slot so the entry tuple (and through it the
        # event) drops its last calendar reference once consumed.
        bucket[pos] = None
        self._cur_pos = pos + 1
        self._synced_pos += 1
        self._count -= 1
        return entry

    # -- maintenance -----------------------------------------------------
    def compact(self, is_dead: Callable[[Entry], bool]) -> int:
        """Drop every entry for which ``is_dead`` holds; returns count.

        One O(n) pass over every level, mirroring the heap backend's
        compaction: bucket lists are filtered in place, emptied slots
        leave the slot heaps lazily (checked on materialize), and the
        current drain bucket keeps its consumed prefix untouched.
        """
        removed = 0
        if self._pre:
            live = [entry for entry in self._pre if not is_dead(entry)]
            removed += len(self._pre) - len(live)
            self._pre = live
        for level in (self._fine, self._coarse):
            for slot in list(level):
                bucket = level[slot]
                live = [entry for entry in bucket if not is_dead(entry)]
                if len(live) != len(bucket):
                    removed += len(bucket) - len(live)
                    if live:
                        level[slot] = live
                    else:
                        del level[slot]
        if self._fine_slots:
            self._fine_slots = [s for s in self._fine_slots if s in self._fine]
            self._fine_slots.sort()
        if self._coarse_slots:
            self._coarse_slots = [s for s in self._coarse_slots if s in self._coarse]
            self._coarse_slots.sort()
        if self._far:
            live = [entry for entry in self._far if not is_dead(entry)]
            removed += len(self._far) - len(live)
            self._far = live
        bucket = self._cur_bucket
        if bucket is not None:
            pos = self._cur_pos
            tail = [entry for entry in bucket[pos:] if not is_dead(entry)]
            removed += (len(bucket) - pos) - len(tail)
            del bucket[pos:]
            bucket.extend(tail)
        self._count -= removed
        return removed
