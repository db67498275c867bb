"""Unit tests for the submission and wait paths."""

import pytest

from repro.cpu.core import CpuCore, CycleCategory
from repro.cpu.instructions import InstructionCosts
from repro.dsa.config import DeviceConfig, WqMode
from repro.dsa.descriptor import WorkDescriptor
from repro.dsa.opcodes import Opcode
from repro.mem import AddressSpace
from repro.platform import spr_platform
from repro.runtime.op import RuntimeOp
from repro.runtime.submit import prepare_descriptor, submit
from repro.runtime.wait import WaitMode, wait_for


def setup_portal(mode=WqMode.DEDICATED, wq_size=32):
    platform = spr_platform(device_config=DeviceConfig.single(wq_size=wq_size, mode=mode))
    space = AddressSpace()
    portal = platform.open_portal("dsa0", 0, space)
    core = platform.core(0)
    return platform, space, portal, core


def make_copy_desc(space, size=4096):
    src = space.allocate(size)
    dst = space.allocate(size)
    return WorkDescriptor(
        Opcode.MEMMOVE, pasid=space.pasid, src=src.va, dst=dst.va, size=size
    )


class TestPrepare:
    def test_prepare_stamps_time_and_accounts(self):
        platform, space, portal, core = setup_portal()
        desc = make_copy_desc(space)

        def proc(env):
            yield from prepare_descriptor(env, core, desc)

        platform.env.process(proc(platform.env))
        platform.env.run()
        assert desc.times.prepared is not None
        assert core.time_in(CycleCategory.PREPARE) > 0
        assert core.time_in(CycleCategory.ALLOC) == 0

    def test_allocation_optional(self):
        platform, space, portal, core = setup_portal()
        desc = make_copy_desc(space)

        def proc(env):
            yield from prepare_descriptor(env, core, desc, allocate=True)

        platform.env.process(proc(platform.env))
        platform.env.run()
        assert desc.times.allocated is not None
        assert core.time_in(CycleCategory.ALLOC) > 0


class TestSubmit:
    def test_dwq_movdir_cost(self):
        platform, space, portal, core = setup_portal()
        desc = make_copy_desc(space)
        retries = []

        def proc(env):
            retries.append((yield from submit(env, core, portal, desc)))

        platform.env.process(proc(platform.env))
        platform.env.run()
        assert retries == [0]
        assert core.time_in(CycleCategory.SUBMIT) == platform.costs.movdir64b_ns

    def test_swq_enqcmd_retries_until_accepted(self):
        """Saturate the engine's read buffers and the 1-entry SWQ so a
        later ENQCMD gets the retry status and loops."""
        platform, space, portal, core = setup_portal(mode=WqMode.SHARED, wq_size=1)
        total_retries = []

        def proc(env):
            retries = 0
            for _ in range(40):  # > read buffers (32) + WQ entries (1)
                desc = make_copy_desc(space, size=1 << 20)
                retries += yield from submit(env, core, portal, desc)
            total_retries.append(retries)

        platform.env.process(proc(platform.env))
        platform.env.run()
        assert total_retries[0] > 0
        assert core.time_in(CycleCategory.SUBMIT) >= 40 * platform.costs.enqcmd_ns

    def test_swq_bounded_retries_raise(self):
        platform, space, portal, core = setup_portal(mode=WqMode.SHARED, wq_size=1)

        def proc(env):
            for _ in range(40):
                desc = make_copy_desc(space, size=1 << 20)
                yield from submit(env, core, portal, desc, max_retries=0)

        platform.env.process(proc(platform.env))
        with pytest.raises(RuntimeError, match="retries"):
            platform.env.run()


class TestStartInto:
    """``RuntimeOp.start_into``: the op settles in place into a bare
    continuation, with no process and no calendar entry for ``done``."""

    def test_continuation_runs_in_the_last_stage_pop(self):
        platform, space, portal, core = setup_portal()
        env = platform.env
        desc = make_copy_desc(space)
        seen = []
        op = RuntimeOp(env, core, platform.costs).for_submit(
            portal, desc, prepare=True, wait=WaitMode.SPIN
        )
        env.call_in(0.0, lambda: op.start_into(lambda done: seen.append((env.now, done.value))))
        env.run()
        (when, waited), = seen
        assert waited > 0 and op.done.processed
        # The wake stage's pop: completion plus one poll check.
        assert when == desc.times.completed + platform.costs.poll_check_ns
        assert core.time_in(CycleCategory.WAIT_SPIN) == waited

    def test_unhandled_submission_error_raises_out_of_run(self):
        platform, space, portal, core = setup_portal(mode=WqMode.SHARED, wq_size=1)
        env = platform.env
        seen = []

        def submit_one():
            desc = make_copy_desc(space, size=1 << 20)
            RuntimeOp(env, core, platform.costs).for_submit(
                portal, desc, max_retries=0
            ).start_into(seen.append)

        for _ in range(8):  # more than the PEs take plus the one slot
            env.call_in(0.0, submit_one)
        with pytest.raises(RuntimeError, match="retries"):
            env.run()
        assert seen[0].ok and not seen[-1].ok


class TestWait:
    @pytest.mark.parametrize(
        "mode,category",
        [
            (WaitMode.SPIN, CycleCategory.WAIT_SPIN),
            (WaitMode.UMWAIT, CycleCategory.UMWAIT),
            (WaitMode.INTERRUPT, CycleCategory.IDLE),
        ],
    )
    def test_wait_books_category(self, mode, category):
        platform, space, portal, core = setup_portal()
        desc = make_copy_desc(space, size=65536)
        waited = {}

        def proc(env):
            yield from submit(env, core, portal, desc)
            waited["ns"] = yield from wait_for(env, core, desc, mode)

        platform.env.process(proc(platform.env))
        platform.env.run()
        assert desc.completion.done
        assert waited["ns"] > 0
        assert core.time_in(category) == pytest.approx(waited["ns"])

    def test_wait_without_submit_rejected(self):
        platform, space, portal, core = setup_portal()
        desc = make_copy_desc(space)

        def proc(env):
            yield from wait_for(env, core, desc)

        platform.env.process(proc(platform.env))
        with pytest.raises(RuntimeError, match="never submitted"):
            platform.env.run()

    def test_umwait_cheaper_than_interrupt_wakeup(self):
        costs = InstructionCosts()
        assert costs.umwait_wake_ns < costs.interrupt_ns

    def test_umwait_deadline_rearms_and_cancels_on_completion(self):
        """IA32_UMWAIT_CONTROL TSC deadline: short deadlines force
        re-arm wakeups, the final armed deadline is cancelled when the
        completion wins, and the total wait matches the no-deadline
        timing exactly."""
        platform, space, portal, core = setup_portal()
        desc = make_copy_desc(space, size=1 << 20)
        waited = {}

        def proc(env):
            yield from submit(env, core, portal, desc)
            waited["ns"] = yield from wait_for(
                env, core, desc, WaitMode.UMWAIT, max_wait_ns=100.0
            )

        env = platform.env
        env.process(proc(env))
        env.run()
        assert desc.completion.done
        assert waited["ns"] > 100.0  # the copy outlives several deadlines
        wakes = env.metrics.counter("core0.wait.umwait_deadline_wakes").value
        assert wakes == int(waited["ns"] // 100.0)
        assert core.time_in(CycleCategory.UMWAIT) == pytest.approx(waited["ns"])
        # The deadline armed when the completion landed was cancelled,
        # not left to fire into a stale no-op.
        assert env.cancelled_events >= 1

    def test_umwait_deadline_none_matches_default_timing(self):
        results = []
        for max_wait_ns in (None, 50.0):
            platform, space, portal, core = setup_portal()
            desc = make_copy_desc(space, size=1 << 20)
            waited = {}

            def proc(env):
                yield from submit(env, core, portal, desc)
                waited["ns"] = yield from wait_for(
                    env, core, desc, WaitMode.UMWAIT, max_wait_ns=max_wait_ns
                )

            platform.env.process(proc(platform.env))
            platform.env.run()
            results.append((waited["ns"], platform.env.now))
        # Deadline wakeups re-check and re-arm; they never change when
        # the completion is observed.
        assert results[0] == pytest.approx(results[1])

    def test_umwait_deadline_must_be_positive(self):
        platform, space, portal, core = setup_portal()
        desc = make_copy_desc(space)

        def proc(env):
            yield from submit(env, core, portal, desc)
            with pytest.raises(ValueError, match="max_wait_ns"):
                yield from wait_for(
                    env, core, desc, WaitMode.UMWAIT, max_wait_ns=0.0
                )

        platform.env.process(proc(platform.env))
        platform.env.run()


class TestCpuCore:
    def test_fraction_accounting(self):
        platform = spr_platform()
        core = platform.core(0)
        core.account(CycleCategory.BUSY, 25.0)
        core.account(CycleCategory.UMWAIT, 75.0)
        assert core.fraction(CycleCategory.UMWAIT) == pytest.approx(0.75)

    def test_cycles_scale_with_frequency(self):
        core = CpuCore(platform_env(), frequency_ghz=3.0)
        core.account(CycleCategory.BUSY, 10.0)
        assert core.cycles_in(CycleCategory.BUSY) == pytest.approx(30.0)

    def test_negative_duration_rejected(self):
        core = CpuCore(platform_env())
        with pytest.raises(ValueError):
            core.account(CycleCategory.BUSY, -1.0)

    def test_reset(self):
        core = CpuCore(platform_env())
        core.account(CycleCategory.BUSY, 5.0)
        core.reset()
        assert core.accounted_time == 0.0


def platform_env():
    from repro.sim import Environment

    return Environment()
