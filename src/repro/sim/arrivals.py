"""Vectorized open-loop arrival generators.

Closed-loop experiments (the paper's figures) re-submit the moment a
descriptor completes, so they never have more than queue-depth timers
pending.  Open-loop traffic — the ROADMAP's datacenter serving mode —
instead schedules work at instants drawn from an arrival process,
independent of completions.

Three processes are provided, all parameterized by ``rate`` in events
per simulated nanosecond (the repo-wide time unit):

* :class:`PoissonProcess` — exponential interarrival gaps, the
  memoryless baseline.
* :class:`BurstyProcess` — two-phase hyperexponential (H2) gaps fit by
  the balanced-means rule to a target squared coefficient of variation
  ``cv2 > 1``: same mean rate, heavy bursts interleaved with long idle
  gaps.  ``cv2 == 1`` delegates to the exact Poisson gap stream (same
  derived generator, same draws — no H2 fit round-off).
* :class:`DiurnalProcess` — a Poisson process under a sinusoidal rate
  envelope: unit-exponential draws scaled by the instantaneous rate,
  for tenants whose load breathes over a period (day/night traffic).

Gaps are drawn in vectorized numpy batches from streams ``derive``\\ d
off the installed seed, and handed out as scalars with an index
increment (amortized O(1) per arrival, like
:class:`~repro.sim.rng.BatchedStream`).  Draws are *batch-size
invariant*: each distribution pulls from its own derived child stream,
so ``times(1_000_000)`` in one call, the same million via ``next_gap``
one at a time, or any mix, produce identical instants — which is what
makes serial and ``--jobs N`` runs draw-for-draw identical.

:func:`open_loop` is the driver: a chain of bare calendar entries that
walks an arrival process and invokes a handler per arrival, keeping
exactly one pending timer regardless of horizon length.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.sim.engine import Environment, Event, Interrupt, SimulationError
from repro.sim.rng import DEFAULT_BATCH, derive, make_rng

__all__ = [
    "ArrivalProcess",
    "PoissonProcess",
    "BurstyProcess",
    "DiurnalProcess",
    "OpenLoop",
    "open_loop",
]


class ArrivalProcess:
    """Base class: batched gap generation + scalar hand-out.

    Subclasses implement :meth:`gaps`, drawing ``n`` interarrival gaps
    in one vectorized pass; the base class provides the scalar cursor
    (:meth:`next_gap`) and absolute-instant helper (:meth:`times`).
    """

    __slots__ = ("rate", "batch", "_buf", "_pos")

    def __init__(self, rate: float, batch: int = DEFAULT_BATCH):
        if rate <= 0:
            raise ValueError(f"arrival rate must be positive, got {rate}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.rate = rate
        self.batch = batch
        self._buf: Optional[memoryview] = None
        self._pos = 0

    def gaps(self, n: int) -> np.ndarray:
        """``n`` interarrival gaps (ns), vectorized."""
        raise NotImplementedError

    def next_gap(self) -> float:
        """One scalar gap; refills from :meth:`gaps` in batches.

        A refill keeps a ``memoryview`` of the batch, whose items are
        Python floats: a draw is one index, not a numpy scalar and a
        ``float()``.  (A ``tolist()`` copy indexes faster but holds 32
        bytes per gap instead of 8, per arrival process.)
        """
        buf = self._buf
        if buf is None or self._pos >= len(buf):
            buf = self._buf = memoryview(self.gaps(self.batch))
            self._pos = 0
        value = buf[self._pos]
        self._pos += 1
        return value

    def times(self, n: int, start: float = 0.0) -> np.ndarray:
        """``n`` absolute arrival instants from ``start`` (exclusive).

        Continues the stream: instants follow any gaps already handed
        out, so mixing ``times`` and ``next_gap`` never replays or
        skips a draw.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n == 0:
            # Nothing to hand out: no draw, and no buffer to slice yet
            # on a fresh process.
            return np.empty(0)
        buf = self._buf
        leftover = 0 if buf is None else len(buf) - self._pos
        if leftover >= n:
            take = buf[self._pos : self._pos + n]
            self._pos += n
        else:
            fresh = self.gaps(n - leftover)
            take = fresh if leftover == 0 else np.concatenate([buf[self._pos :], fresh])
            self._buf = None
            self._pos = 0
        return start + np.cumsum(take)


class PoissonProcess(ArrivalProcess):
    """Memoryless arrivals: exponential gaps with mean ``1/rate``."""

    __slots__ = ("_rng",)

    def __init__(self, rate: float, rng=None, stream: int = 0, batch: int = DEFAULT_BATCH):
        super().__init__(rate, batch)
        self._rng = derive(make_rng(rng), stream)

    def gaps(self, n: int) -> np.ndarray:
        return self._rng.exponential(1.0 / self.rate, size=n)


class BurstyProcess(ArrivalProcess):
    """Hyperexponential (H2) arrivals: same mean rate, bursty gaps.

    Balanced-means fit for a target squared coefficient of variation
    ``cv2 >= 1``::

        p  = (1 + sqrt((cv2 - 1) / (cv2 + 1))) / 2
        l1 = 2 p rate          # the fast (burst) phase
        l2 = 2 (1 - p) rate    # the slow (idle) phase

    Each gap picks the fast phase with probability ``p``; the mean is
    exactly ``1/rate`` and the variance hits the requested ``cv2``.
    The phase selector and the two exponentials each draw from their
    own derived child stream, which is what keeps the generator
    batch-size invariant (one ``where`` over three aligned arrays).

    ``cv2 == 1`` degenerates to Poisson *exactly*: the root stream
    itself draws plain exponential gaps, producing the very same values
    as ``PoissonProcess(rate, rng, stream)`` rather than an H2 fit that
    merely matches the first two moments.  ``cv2 < 1`` (including NaN)
    raises — the balanced-means fit would produce phase probabilities
    outside [0, 1].
    """

    __slots__ = ("cv2", "_p", "_scale_fast", "_scale_slow", "_rng_u", "_rng_fast", "_rng_slow")

    def __init__(
        self,
        rate: float,
        cv2: float = 4.0,
        rng=None,
        stream: int = 0,
        batch: int = DEFAULT_BATCH,
    ):
        super().__init__(rate, batch)
        # "not >=" (rather than "<") so NaN fails loudly too instead of
        # flowing into sqrt and producing NaN phase probabilities.
        if not cv2 >= 1.0:
            raise ValueError(f"H2 requires cv2 >= 1 (got {cv2}); use PoissonProcess below that")
        self.cv2 = cv2
        root = derive(make_rng(rng), stream)
        if cv2 == 1.0:
            # Exact Poisson delegation: same root generator, same draws
            # as PoissonProcess — the fast/slow children stay unused.
            self._p = 1.0
            self._scale_fast = self._scale_slow = 1.0 / rate
            self._rng_u = root
            self._rng_fast = self._rng_slow = None
            return
        p = 0.5 * (1.0 + np.sqrt((cv2 - 1.0) / (cv2 + 1.0)))
        self._p = p
        self._scale_fast = 1.0 / (2.0 * p * rate)
        self._scale_slow = 1.0 / (2.0 * (1.0 - p) * rate)
        self._rng_u = derive(root, 0)
        self._rng_fast = derive(root, 1)
        self._rng_slow = derive(root, 2)

    def gaps(self, n: int) -> np.ndarray:
        if self._rng_fast is None:  # cv2 == 1: the exact Poisson stream
            return self._rng_u.exponential(self._scale_fast, size=n)
        u = self._rng_u.uniform(size=n)
        fast = self._rng_fast.exponential(self._scale_fast, size=n)
        slow = self._rng_slow.exponential(self._scale_slow, size=n)
        return np.where(u < self._p, fast, slow)


class DiurnalProcess(ArrivalProcess):
    """Poisson arrivals under a sinusoidal rate envelope.

    The instantaneous rate is::

        r(t) = rate * (1 + amplitude * sin(2*pi*t/period_ns + phase))

    Gaps are unit exponentials scaled by ``1/r(t)`` at the cursor — the
    standard scaled-gap approximation to an inhomogeneous Poisson
    process, exact in the limit of gaps short against the period (the
    serving-mode regime: microsecond gaps, millisecond-plus periods).

    ``amplitude`` must stay below 1 so the rate never reaches zero.
    Batch-size invariance holds because the unit draws come from one
    derived stream in order and the envelope cursor advances once per
    gap regardless of how the draws are batched.
    """

    __slots__ = ("period_ns", "amplitude", "phase", "_cursor", "_rng")

    def __init__(
        self,
        rate: float,
        period_ns: float,
        amplitude: float = 0.5,
        phase: float = 0.0,
        rng=None,
        stream: int = 0,
        batch: int = DEFAULT_BATCH,
    ):
        super().__init__(rate, batch)
        if period_ns <= 0:
            raise ValueError(f"period_ns must be positive, got {period_ns}")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(
                f"amplitude must be in [0, 1) so the rate stays positive, got {amplitude}"
            )
        self.period_ns = period_ns
        self.amplitude = amplitude
        self.phase = phase
        self._cursor = 0.0
        self._rng = derive(make_rng(rng), stream)

    def rate_at(self, t: float) -> float:
        """The envelope's instantaneous rate at absolute time ``t``."""
        return self.rate * (
            1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period_ns + self.phase)
        )

    def gaps(self, n: int) -> np.ndarray:
        units = self._rng.exponential(1.0, size=n)
        out = np.empty(n)
        cursor = self._cursor
        two_pi_over_period = 2.0 * np.pi / self.period_ns
        rate, amplitude, phase = self.rate, self.amplitude, self.phase
        for i in range(n):
            r = rate * (1.0 + amplitude * np.sin(two_pi_over_period * cursor + phase))
            gap = units[i] / r
            out[i] = gap
            cursor += gap
        self._cursor = cursor
        return out


class OpenLoop(Event):
    """The :func:`open_loop` driver; triggers when it stops.

    Its value is the number of arrivals delivered.  It is an event, so
    a process can ``yield`` it, but it runs as bare calendar entries
    (:meth:`~repro.sim.engine.Environment.call_in`), not as a generator
    process: a boot entry, one entry per arrival gap, and a zero-delay
    entry per :meth:`interrupt` — each pushed where the generator form
    pushed its boot event, gap timeout and interrupt kicker.
    """

    __slots__ = ("source", "handler", "count", "until", "start", "delivered")

    def __init__(
        self,
        env: Environment,
        source: ArrivalProcess,
        handler: Callable[[int, float], object],
        count: Optional[int],
        until: Optional[float],
        start: float,
    ):
        super().__init__(env)
        self.source = source
        self.handler = handler
        self.count = count
        self.until = until
        self.start = start
        self.delivered = 0
        env.call_in(0.0, self._boot)

    def cancel(self) -> bool:
        """A driver cannot be cancelled — use :meth:`interrupt`."""
        raise SimulationError("cannot cancel an open_loop driver; use interrupt()")

    def interrupt(self, cause: object = None) -> None:
        """Stop the driver at the current time, keeping what it delivered.

        The stop lands when a zero-delay entry pops, so a handler that
        interrupts its own driver still sees the next gap drawn and its
        timer armed; that timer then pops as a no-op.  Interrupting a
        stopped driver does nothing.
        """
        if not self._triggered:
            self.env.call_in(0.0, self._stop)

    def _stop(self) -> None:
        if not self._triggered:
            self._finish()

    def _finish(self, exc: Optional[Exception] = None) -> None:
        """Trigger with the count delivered, or fail with ``exc``.

        Drops the handler and the source first: a handler usually
        closes over the model that holds this driver, and that cycle
        would keep the whole model alive until a full garbage
        collection.
        """
        self.handler = self.source = None
        if exc is None:
            self.succeed(self.delivered)
        else:
            self.fail(exc)

    def _boot(self) -> None:
        if self.start > 0.0:
            self.env.call_in(self.start, self._next)
        else:
            self._next()

    def _next(self) -> None:
        """Arm the timer for the next arrival, or stop."""
        if self._triggered:  # interrupted while waiting for ``start``
            return
        env = self.env
        try:
            count = self.count
            if count is not None and self.delivered >= count:
                self._finish()
                return
            gap = self.source.next_gap()
            until = self.until
            if until is not None and env._now + gap > until:
                self._finish()
                return
            env.call_in(gap, self._arrive)
        except Exception as exc:
            self._finish(exc)

    def _arrive(self) -> None:
        if self._triggered:  # the timer pending when an interrupt landed
            return
        try:
            self.handler(self.delivered, self.env._now)
        except Interrupt:
            self._finish()
            return
        except Exception as exc:
            self._finish(exc)
            return
        self.delivered += 1
        self._next()


def open_loop(
    env: Environment,
    source: ArrivalProcess,
    handler: Callable[[int, float], object],
    count: Optional[int] = None,
    until: Optional[float] = None,
    start: float = 0.0,
) -> OpenLoop:
    """Drive ``handler(index, now)`` at each arrival instant.

    Runs as a chain of bare calendar entries holding exactly one
    pending timer (:class:`OpenLoop`), so an arbitrarily long horizon
    costs O(1) calendar space from the driver itself (the *handled*
    work is what piles up — that is the model's business).  Stops
    after ``count`` arrivals, or at the first arrival strictly past
    ``until`` (an arrival landing *exactly* on ``until`` is still
    delivered), whichever comes first; the returned event's value is
    the number of arrivals delivered.  The first gap is drawn at
    ``start``.

    Interrupting the driver (:meth:`OpenLoop.interrupt`, e.g. from a
    handler that decides to stop the flood mid-run) is a clean stop,
    not a failure: the pending timer is abandoned and the driver
    finishes with the arrivals delivered so far.  An exception from
    the handler or the arrival source fails the driver's event.
    """
    if count is None and until is None:
        raise ValueError("open_loop needs a stopping rule: count and/or until")
    return OpenLoop(env, source, handler, count, until, start)
