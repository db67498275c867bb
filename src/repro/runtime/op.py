"""Runtime operations as chains of bare calendar entries.

One :class:`RuntimeOp` drives one runtime call — descriptor
preparation, MOVDIR64B or ENQCMD submission, a spin / UMWAIT /
interrupt wait, the DML sync path, the software kernels, and
:func:`~repro.runtime.recovery.recover`'s partial-completion loop — as a
chain of stage methods on one object.  Stage rule:

* where the code books core time and waits it out, a stage books the
  cycles (:meth:`CpuCore.account`) and pushes the next stage with
  :meth:`Environment.call_in` for the same delay;
* where it waits for a completion, the next stage hangs on the
  descriptor's ``completion_event.callbacks``;
* a UMWAIT with a TSC deadline builds the same ``Timeout`` +
  ``any_of`` condition and hangs on the condition.

So every calendar entry is pushed at the same ``(when, seq)`` as the
generator form that preceded it, without a ``Process``, a ``Timeout``
per stage, or a resume through a ``yield from`` chain per entry.

Three ways to run an op:

* **Bare**: push ``op.start`` (``env.call_in(0, op.start)``) and wait on
  ``op.done``, which the last stage ``succeed``\\ s like a returning
  process (``repro.fleet.harness`` does this per request).
* **As a generator shim**: ``yield from op.run()``.  The last stage
  triggers and processes ``op.done`` in place, with no calendar entry,
  so the caller resumes inside the same pop, exactly where a ``yield
  from`` of the old generator returned.  ``prepare_descriptor``,
  ``submit``, ``wait_for``, the ``Dml`` calls and ``recover`` are such
  shims.
* **Into a continuation**: ``op.start_into(then)`` runs the first stage
  now and settles ``op.done`` in place straight into ``then(done)``,
  with no calendar entry and no generator: a bare-entry driver chains
  its next stage this way (``repro.workloads``' libfabric SAR and vhost
  drivers).

Errors surface where the generators raised them: a synchronous error
(a bad ``max_wait_ns``, no live portal for a hardware path) raises from
``start()``; the bounded-ENQCMD ``RuntimeError`` and a full-DWQ
``SubmissionError`` are thrown into the shim's caller, and inside
``recover`` they take its no-live-portal path.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.cpu.core import CpuCore, CycleCategory
from repro.cpu.instructions import InstructionCosts
from repro.dsa import ops as functional
from repro.dsa.config import WqMode
from repro.dsa.descriptor import DescriptorPool, WorkDescriptor
from repro.dsa.errors import StatusCode
from repro.dsa.opcodes import RESUMABLE_OPCODES
from repro.sim.engine import Environment, Event


class WaitMode(enum.Enum):
    SPIN = "spin"  # busy-poll the completion record
    UMWAIT = "umwait"  # UMONITOR + UMWAIT optimized wait state
    INTERRUPT = "interrupt"  # sleep until the completion interrupt


#: Each mode's ``slot`` (its definition order) keys a core's
#: ``wait_counters``, so a wake hashes no member (``Enum.__hash__`` is a
#: Python-level call), as ``CycleCategory.slot`` indexes its totals.
for _slot, _mode in enumerate(WaitMode):
    _mode.slot = _slot
del _slot, _mode


#: Completion statuses the recovery loop treats as retryable.
RETRYABLE_STATUSES = (StatusCode.PAGE_FAULT, StatusCode.DEVICE_DISABLED)

_BUSY = CycleCategory.BUSY
_IDLE = CycleCategory.IDLE
_SPIN = WaitMode.SPIN
_UMWAIT = WaitMode.UMWAIT
_DEDICATED = WqMode.DEDICATED
_PAGE_FAULT = StatusCode.PAGE_FAULT
_DEVICE_DISABLED = StatusCode.DEVICE_DISABLED


class RuntimeOp:
    """One runtime call on one core, run as a chain of bare entries.

    Build it with one ``for_*`` method, which names the first stage
    and where each phase continues; then run it bare (:meth:`start`) or
    through :meth:`run`.  Each ``_on_*`` slot is the continuation of one
    phase and takes the op and the phase's result.  The entry and
    continuation slots hold plain functions, not bound methods, so an
    op holds no reference cycle and is freed by refcount the moment
    its last calendar entry and its caller let go of it.
    """

    __slots__ = (
        "env",
        "core",
        "costs",
        "done",
        "_entry",
        "_in_place",
        # the descriptor the current phase works on, and its submission
        "descriptor",
        "portal",
        "allocate",
        "max_retries",
        "source",
        "_retries",
        "_wq",
        # waiting
        "mode",
        "max_wait_ns",
        "_event",
        "_traced",
        "_wait_start",
        "_waited",
        "_deadline",
        "_deadline_wakes",
        # the DML call
        "dml",
        "path",
        "pinned",
        "in_llc",
        # continuations
        "_on_prepared",
        "_on_submitted",
        "_on_waited",
        "_on_software",
        # recovery
        "policy",
        "original",
        "result",
        "pool",
        "scheduler",
        "socket",
        "_total",
        "_offset",
        "_started",
        "_tries",
        "_last_failed",
        "_fault_va",
        "_backoff",
        "_span",
    )

    def __init__(self, env: Environment, core: CpuCore, costs: InstructionCosts):
        self.env = env
        self.core = core
        self.costs = costs
        self.done = Event(env)
        self._in_place = False
        self.policy = None
        self.max_wait_ns = None

    # -- building -------------------------------------------------------------
    def for_prepare(self, descriptor, allocate: bool = False) -> "RuntimeOp":
        """``prepare_descriptor``: finishes with None."""
        self.descriptor = descriptor
        self.allocate = allocate
        self._on_prepared = RuntimeOp._finish
        self._entry = RuntimeOp._prepare
        return self

    def for_submit(
        self,
        portal,
        descriptor,
        max_retries: Optional[int] = None,
        source: Optional[str] = None,
        prepare: bool = False,
        wait: Optional[WaitMode] = None,
    ) -> "RuntimeOp":
        """``submit`` (after ``prepare_descriptor`` when ``prepare``):
        finishes with the ENQCMD retry count; or, given a ``wait`` mode,
        goes on to ``wait_for`` in that mode and finishes with the time
        waited."""
        self.descriptor = descriptor
        self.portal = portal
        self.max_retries = max_retries
        self.source = source
        self.allocate = False
        self._on_prepared = RuntimeOp._submit
        if wait is None:
            self._on_submitted = RuntimeOp._finish
        else:
            self.mode = wait
            self._on_submitted = RuntimeOp._wait
            self._on_waited = RuntimeOp._finish
        self._entry = RuntimeOp._prepare if prepare else RuntimeOp._submit
        return self

    def for_wait(self, descriptor, mode: WaitMode, max_wait_ns=None) -> "RuntimeOp":
        """``wait_for``: finishes with the time waited (ns)."""
        self.descriptor = descriptor
        self.mode = mode
        self.max_wait_ns = max_wait_ns
        self._on_waited = RuntimeOp._finish
        self._entry = RuntimeOp._wait
        return self

    def for_software(self, dml, descriptor, in_llc: bool = False) -> "RuntimeOp":
        """``Dml.run_software``: finishes with the completion status."""
        self.dml = dml
        self.descriptor = descriptor
        self.in_llc = in_llc
        self._on_software = RuntimeOp._finish_status
        self._entry = RuntimeOp._software
        return self

    def for_execute(self, dml, descriptor, path, in_llc=False, portal=None) -> "RuntimeOp":
        """``Dml.execute``: finishes with the completion status."""
        self._dml_path(dml, descriptor, path, in_llc, portal)
        self._on_waited = RuntimeOp._finish_status
        self._on_software = RuntimeOp._finish_status
        self._entry = RuntimeOp._execute
        return self

    def for_recover(
        self,
        dml,
        descriptor: WorkDescriptor,
        result,
        policy,
        path,
        in_llc: bool = False,
        pool: Optional[DescriptorPool] = None,
        scheduler=None,
        socket: Optional[int] = None,
    ) -> "RuntimeOp":
        """``recover``: finishes with ``result`` (a RecoveryResult)."""
        self._dml_path(dml, descriptor, path, in_llc, None)
        self.original = descriptor
        self.result = result
        self.policy = policy
        self.pool = pool
        self.scheduler = scheduler
        self.socket = socket
        self._on_waited = RuntimeOp._attempted
        self._on_software = RuntimeOp._degraded
        self._entry = RuntimeOp._recover
        return self

    def _dml_path(self, dml, descriptor, path, in_llc, portal) -> None:
        self.dml = dml
        self.descriptor = descriptor
        self.path = path
        self.in_llc = in_llc
        self.pinned = portal
        self.mode = dml.wait_mode
        self.allocate = False
        self.max_retries = None
        self.source = None
        self._on_prepared = RuntimeOp._submit
        self._on_submitted = RuntimeOp._submitted

    # -- running ----------------------------------------------------------------
    def start(self) -> None:
        """Run the first stage (push it: ``env.call_in(0, op.start)``)."""
        self._entry(self)

    def run(self):
        """Generator shim: ``yield from op.run()`` returns the op's result."""
        self._in_place = True
        self._entry(self)
        done = self.done
        if done._processed:  # finished without a calendar entry
            return done._value
        return (yield done)

    def start_into(self, then: Callable[[Event], None]) -> None:
        """Run the first stage now; the last stage settles ``done`` in
        place and calls ``then(done)`` inside its own pop, with no
        calendar entry: the bare-entry form of ``yield from op.run()``.
        A submission error that ``then`` does not ``defuse`` raises out
        of the run loop, as from a process that did not catch it."""
        self._in_place = True
        self.done.callbacks.append(then)
        self._entry(self)

    def _finish(self, value=None) -> None:
        if self._in_place:
            self._settle(True, value)
        else:
            self.done.succeed(value)

    def _finish_status(self, _value=None) -> None:
        self._finish(self.descriptor.completion.status)

    def _raise(self, error: BaseException) -> None:
        """A submission error after the op started: ``recover`` treats a
        ``RuntimeError`` as "no live portal"; otherwise it is thrown into
        the shim's caller (or out of the run loop for a bare op)."""
        if self.policy is not None and isinstance(error, RuntimeError):
            self._no_live()
        elif self._in_place:
            self._settle(False, error)
        else:
            raise error

    def _settle(self, ok: bool, value) -> None:
        """Trigger and process ``done`` in place, with no calendar entry:
        the shim's caller resumes inside the current pop."""
        done = self.done
        done._triggered = True
        done._ok = ok
        done._value = value
        callbacks, done.callbacks = done.callbacks, None
        done._processed = True
        for callback in callbacks:
            callback(done)
        if not ok and not done._defused:
            raise value

    # -- preparation (paper §4.2: allocation, field writes) ----------------------
    def _prepare(self) -> None:
        env = self.env
        tracer = env.tracer
        descriptor = self.descriptor
        if tracer.enabled and descriptor.trace_track < 0:
            descriptor.trace_track = tracer.next_track()
        if self.allocate:
            descriptor.times.allocated = env._now
            if tracer.enabled:
                tracer.begin(
                    env._now, "alloc", "alloc", self.core.trace_agent, descriptor.trace_track
                )
            delay = self.costs.descriptor_alloc_ns
            self.core.account(CycleCategory.ALLOC, delay)
            env.call_in(delay, self._allocated)
            return
        self._fill()

    def _allocated(self) -> None:
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.end(
                self.env._now, "alloc", "alloc", self.core.trace_agent,
                self.descriptor.trace_track,
            )
        self._fill()

    def _fill(self) -> None:
        env = self.env
        tracer = env.tracer
        if tracer.enabled:
            tracer.begin(
                env._now, "prepare", "prepare", self.core.trace_agent,
                self.descriptor.trace_track,
            )
        delay = self.costs.descriptor_prepare_ns
        self.core.account(CycleCategory.PREPARE, delay)
        env.call_in(delay, self._prepared)

    def _prepared(self) -> None:
        env = self.env
        descriptor = self.descriptor
        descriptor.times.prepared = env._now
        tracer = env.tracer
        if tracer.enabled:
            tracer.end(
                env._now, "prepare", "prepare", self.core.trace_agent,
                descriptor.trace_track,
            )
        self._on_prepared(self, None)

    # -- submission (paper §3.3: MOVDIR64B to a DWQ, ENQCMD to an SWQ) -----------
    def _submit(self, _value=None) -> None:
        env = self.env
        tracer = env.tracer
        descriptor = self.descriptor
        if tracer.enabled and descriptor.trace_track < 0:
            descriptor.trace_track = tracer.next_track()
        portal = self.portal
        wq = portal.device.wq(portal.wq_id)
        if wq.config.mode is _DEDICATED:
            if tracer.enabled:
                tracer.begin(
                    env._now, "movdir64b", "submit", self.core.trace_agent,
                    descriptor.trace_track,
                )
            delay = self.costs.movdir64b_ns
            self.core.account(CycleCategory.SUBMIT, delay)
            env.call_in(delay, self._posted)
            return
        self._retries = 0
        self._wq = wq
        if tracer.enabled:
            tracer.begin(
                env._now, "enqcmd", "submit", self.core.trace_agent, descriptor.trace_track
            )
        delay = self.costs.enqcmd_ns
        self.core.account(CycleCategory.SUBMIT, delay)
        env.call_in(delay, self._enqcmd)

    def _posted(self) -> None:
        portal = self.portal
        try:
            portal.device.submit(self.descriptor, portal.wq_id, source=self.source)
        except RuntimeError as error:  # MOVDIR64B to a full DWQ
            self._raise(error)
            return
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.end(
                self.env._now, "movdir64b", "submit", self.core.trace_agent,
                self.descriptor.trace_track,
            )
        self._on_submitted(self, 0)

    def _enqcmd(self) -> None:
        portal = self.portal
        try:
            accepted = portal.device.submit(self.descriptor, portal.wq_id, source=self.source)
        except RuntimeError as error:
            self._raise(error)
            return
        env = self.env
        tracer = env.tracer
        retries = self._retries
        if accepted:
            if tracer.enabled:
                tracer.end(
                    env._now, "enqcmd", "submit", self.core.trace_agent,
                    self.descriptor.trace_track, {"retries": retries},
                )
            self._wq.record_retries(retries, source=self.source)
            self._on_submitted(self, retries)
            return
        retries += 1
        self._retries = retries
        max_retries = self.max_retries
        if max_retries is not None and retries >= max_retries:
            if tracer.enabled:
                tracer.end(
                    env._now, "enqcmd", "submit", self.core.trace_agent,
                    self.descriptor.trace_track, {"retries": retries},
                )
            # Failed submissions must still account their retries, or
            # congestion vanishes from the metrics exactly when it bites.
            self._wq.record_retries(retries, source=self.source)
            self._raise(
                RuntimeError(
                    f"ENQCMD to {portal.device.name} WQ {portal.wq_id} exceeded "
                    f"{max_retries} retries"
                )
            )
            return
        delay = self.costs.enqcmd_ns
        self.core.account(CycleCategory.SUBMIT, delay)
        env.call_in(delay, self._enqcmd)

    # -- waiting (paper §3.3, §4.4: spin, UMWAIT, interrupt) ---------------------
    def _wait(self, _value=None) -> None:
        max_wait_ns = self.max_wait_ns
        if max_wait_ns is not None and max_wait_ns <= 0:
            raise ValueError(f"max_wait_ns must be positive, got {max_wait_ns}")
        descriptor = self.descriptor
        event = descriptor.completion_event
        if event is None:
            raise RuntimeError("descriptor was never submitted (no completion event)")
        self._event = event
        env = self.env
        self._traced = env.tracer.enabled and descriptor.trace_track >= 0
        if self.mode is _UMWAIT:
            delay = self.costs.umonitor_ns
            self.core.account(_BUSY, delay)
            env.call_in(delay, self._monitor)
            return
        self._monitor()

    def _monitor(self) -> None:
        env = self.env
        start = self._wait_start = env._now
        if self._traced:
            env.tracer.begin(
                start, "wait", "wait", self.core.trace_agent, self.descriptor.trace_track,
                {"mode": self.mode.value},
            )
        event = self._event
        if event._triggered:
            self._woken(event)
        elif self.mode is _UMWAIT and self.max_wait_ns is not None:
            self._deadline_wakes = 0
            self._arm()
        else:
            event.callbacks.append(self._woken)

    def _arm(self) -> None:
        """Arm a TSC deadline: the core wakes at it even without a
        completion store (a real calendar timer, cancelled if the
        completion lands first)."""
        env = self.env
        deadline = self._deadline = env.timeout(self.max_wait_ns)
        env.any_of([self._event, deadline]).callbacks.append(self._deadline_or_completion)

    def _deadline_or_completion(self, _condition) -> None:
        if not self._event._triggered:
            self._deadline_wakes += 1
            self._arm()
            return
        # Completion won the race: the armed deadline is stale the
        # instant we stop monitoring.
        self._deadline.cancel()
        self._deadline = None
        if self._deadline_wakes:
            self.env.metrics.counter(
                f"{self.core.trace_agent}.wait.umwait_deadline_wakes"
            ).add(self._deadline_wakes)
        self._woken(self._event)

    def _woken(self, _event) -> None:
        env = self.env
        core = self.core
        costs = self.costs
        mode = self.mode
        waited = self._waited = env._now - self._wait_start
        if mode is _SPIN:
            core.account(CycleCategory.WAIT_SPIN, waited)
            delay = costs.poll_check_ns
        elif mode is _UMWAIT:
            core.account(CycleCategory.UMWAIT, waited)
            delay = costs.umwait_wake_ns
        else:
            core.account(_IDLE, waited)
            delay = costs.interrupt_ns
        counters = core.wait_counters
        counter = counters.get(mode.slot)
        if counter is None:
            counter = counters[mode.slot] = env.metrics.counter(
                f"{core.trace_agent}.wait.{mode.value}_ns"
            )
        counter.add(waited)
        core.account(_BUSY, delay)
        env.call_in(delay, self._woke)

    def _woke(self) -> None:
        if self._traced:
            self.env.tracer.end(
                self.env._now, "wait", "wait", self.core.trace_agent,
                self.descriptor.trace_track, {"waited_ns": self._waited},
            )
        self._on_waited(self, self._waited)

    # -- the DML call (paper §5: path choice, software fallback) ------------------
    def _execute(self) -> None:
        dml = self.dml
        if dml._choose_path(self.path, self.descriptor.size):
            self.portal = self.pinned or dml._next_portal()
            self._prepare()
        else:
            self._software()

    def _submitted(self, _retries) -> None:
        self.dml.jobs_hardware += 1
        self._wait()

    def _software(self) -> None:
        dml = self.dml
        descriptor = self.descriptor
        duration = dml.kernels.time(descriptor.opcode, descriptor.size, in_llc=self.in_llc)
        self.core.account(_BUSY, duration)
        self.env.call_in(duration, self._software_done)

    def _software_done(self) -> None:
        dml = self.dml
        descriptor = self.descriptor
        dml.jobs_software += 1
        if dml.space is not None and dml._buffers_backed(descriptor):
            functional.execute(descriptor, dml.space)
        else:
            descriptor.completion.status = StatusCode.SUCCESS
            descriptor.completion.bytes_completed = descriptor.size
        descriptor.times.completed = self.env._now
        self._on_software(self, None)

    # -- recovery (paper §4.3 / Appendix B: BOF=0 partial completion) -------------
    def _recover(self) -> None:
        self._total = self.original.size
        self._offset = 0
        self._started = self.env._now
        self._tries = 0
        self._last_failed = None
        self._attempt()

    def _attempt(self) -> None:
        """Top of the recovery loop: place, then one hardware attempt."""
        scheduler = self.scheduler
        portal = None
        if scheduler is not None:
            last_failed = self._last_failed
            try:
                portal = scheduler.select(
                    socket=self.socket,
                    exclude=(last_failed,) if last_failed is not None else (),
                )
            except RuntimeError:
                self._no_live()
                return
            if last_failed is not None:
                scheduler.record_failover(last_failed, portal.device.name)
                self.result.reroutes += 1
                self.env.metrics.counter("recovery.reroutes").add()
                self._last_failed = None
        self.pinned = portal
        try:
            self._execute()
        except RuntimeError:
            # No live hardware portal (all devices disabled).
            self._no_live()

    def _no_live(self) -> None:
        metrics = self.env.metrics
        result = self.result
        metrics.counter("recovery.no_live_portal").add()
        result.degraded = True
        metrics.counter("recovery.degraded").add()
        if self.scheduler is not None and self._last_failed is not None:
            self.scheduler.record_failover(self._last_failed, None)
            self._last_failed = None
        if not self.policy.degrade_to_software:
            pending = self.descriptor
            result.status = pending.completion.status
            _propagate(self.original, pending, None)
            if self.pool is not None and pending is not self.original:
                self.pool.release(pending)
            self._finish(result)
            return
        self._degrade(False)

    def _attempted(self, _waited) -> None:
        """A hardware attempt completed: finish, fail, degrade or resume."""
        env = self.env
        metrics = env.metrics
        result = self.result
        original = self.original
        pending = self.descriptor
        pool = self.pool
        completion = pending.completion
        status = completion.status
        if status.is_success:
            result.bytes_hardware += pending.size
            result.status = status
            _propagate(original, pending, self._total)
            if pool is not None and pending is not original:
                pool.release(pending)
            self._finish(result)
            return
        if status not in RETRYABLE_STATUSES:
            result.status = status
            _propagate(original, pending, None)
            if pool is not None and pending is not original:
                pool.release(pending)
            self._finish(result)
            return

        result.faults += 1
        metrics.counter("recovery.faults").add()
        scheduler = self.scheduler
        if scheduler is not None and self.pinned is not None and status is _DEVICE_DISABLED:
            # Don't resubmit into the dead device: the next attempt
            # re-routes to a surviving portal (or software).
            self._last_failed = self.pinned.device.name
        resumable = status is _PAGE_FAULT and original.opcode in RESUMABLE_OPCODES
        salvaged = completion.bytes_completed if resumable else 0
        self._offset += salvaged
        result.bytes_hardware += salvaged

        policy = self.policy
        self._tries += 1
        tries = self._tries
        exhausted = tries > policy.max_retries
        backoff = 0.0 if exhausted else policy.backoff_ns(tries)
        if not exhausted and policy.deadline_ns is not None:
            if (env._now - self._started) + backoff > policy.deadline_ns:
                exhausted = True
                metrics.counter("recovery.deadline_exceeded").add()
        if exhausted:
            result.degraded = True
            metrics.counter("recovery.degraded").add()
            if scheduler is not None and self._last_failed is not None:
                scheduler.record_failover(self._last_failed, None)
                self._last_failed = None
            if not policy.degrade_to_software:
                result.status = status
                _propagate(original, pending, None)
                self._finish(result)
                return
            self._degrade(True)
            return

        # Resolve the fault like the paper's guideline: touch the page
        # so the OS maps it, back off, then resubmit the remainder.
        tracer = env.tracer
        if tracer.enabled and original.trace_track >= 0:
            tracer.begin(
                env._now, "resume", "recovery", self.core.trace_agent,
                original.trace_track, {"attempt": tries, "offset": self._offset},
            )
        self._backoff = backoff
        fault_va = completion.fault_address
        if fault_va is not None and self.dml.space is not None:
            self._fault_va = fault_va
            touch = policy.touch_page_ns
            if touch:
                self.core.account(_BUSY, touch)
                env.call_in(touch, self._touched)
                return
            self._touched()
            return
        self._back_off()

    def _touched(self) -> None:
        space = self.dml.space
        page = space.page_size
        space.page_table.map_range((self._fault_va // page) * page, 1)
        self._back_off()

    def _back_off(self) -> None:
        backoff = self._backoff
        if backoff > 0:
            self.core.account(_IDLE, backoff)
            self.env.metrics.counter("recovery.backoff_ns").add(backoff)
            self.result.backoff_ns_total += backoff
            self.env.call_in(backoff, self._resubmit)
            return
        self._resubmit()

    def _resubmit(self) -> None:
        env = self.env
        original = self.original
        tracer = env.tracer
        if tracer.enabled and original.trace_track >= 0:
            tracer.end(
                env._now, "resume", "recovery", self.core.trace_agent, original.trace_track
            )
        pool = self.pool
        pending = self.descriptor
        if pool is not None and pending is not original:
            # The spent clone's completion was consumed above; nobody
            # else ever saw the object, so it can be recycled into the
            # next attempt's clone.
            pool.release(pending)
        self.descriptor = _remainder(original, self._offset, self._total, pool)
        self.result.attempts += 1
        env.metrics.counter("recovery.resumes").add()
        self._attempt()

    def _degrade(self, span: bool) -> None:
        """Finish the unfinished tail on the software kernels."""
        env = self.env
        original = self.original
        pool = self.pool
        pending = self.descriptor
        if pool is not None and pending is not original:
            pool.release(pending)
        tail = self.descriptor = _remainder(original, self._offset, self._total, pool)
        tracer = env.tracer
        self._span = span and tracer.enabled and original.trace_track >= 0
        if self._span:
            tracer.begin(
                env._now, "degrade", "recovery", self.core.trace_agent,
                original.trace_track, {"tail_bytes": tail.size},
            )
        self._software()

    def _degraded(self, _value) -> None:
        original = self.original
        tail = self.descriptor
        if self._span:
            self.env.tracer.end(
                self.env._now, "degrade", "recovery", self.core.trace_agent,
                original.trace_track,
            )
        result = self.result
        result.bytes_software += tail.size
        result.status = tail.completion.status
        _propagate(original, tail, self._total)
        if self.pool is not None and tail is not original:
            self.pool.release(tail)
        self._finish(result)


def _remainder(
    descriptor: WorkDescriptor, offset: int, total: int, pool: Optional[DescriptorPool]
) -> WorkDescriptor:
    """A clone of ``[offset, total)``; a full-range clone when nothing
    was salvaged, since a resubmission needs an unconsumed completion
    record and event either way."""
    return descriptor.clone_range(offset, total - offset, pool=pool)


def _propagate(
    original: WorkDescriptor, final: WorkDescriptor, total: Optional[int]
) -> None:
    """Copy the final attempt's outcome onto the caller's descriptor."""
    if final is original:
        if total is not None:
            original.completion.bytes_completed = total
        return
    original.completion.status = final.completion.status
    original.completion.result = final.completion.result
    original.completion.fault_address = final.completion.fault_address
    original.completion.bytes_completed = (
        total if total is not None else final.completion.bytes_completed
    )
    original.times.completed = final.times.completed
