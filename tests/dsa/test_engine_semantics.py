"""Engine-level semantics: drain, fence, cache control, SVM sharing."""

import numpy as np
import pytest

from repro.dsa.config import DeviceConfig, WqMode
from repro.dsa import ops
from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.errors import StatusCode
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.mem.address import AddressSpace
from repro.platform import spr_platform
from repro.sim import make_rng

KB = 1024
MB = 1024 * KB


def make_copy(space, size=4 * KB, flags=None, backed=False):
    src = space.allocate(size, backed=backed)
    dst = space.allocate(size, backed=backed)
    descriptor = WorkDescriptor(
        Opcode.MEMMOVE, pasid=space.pasid, src=src.va, dst=dst.va, size=size
    )
    if flags is not None:
        descriptor.flags = flags
    return descriptor, src, dst


class TestDrain:
    def test_drain_completes_after_inflight_work(self):
        platform = spr_platform()
        device = platform.driver.device("dsa0")
        space = AddressSpace()
        device.attach_space(space)
        big, _s, _d = make_copy(space, size=4 * MB)
        drain = WorkDescriptor(Opcode.DRAIN, pasid=space.pasid)
        device.submit(big)
        device.submit(drain)
        platform.env.run()
        assert drain.completion.status == StatusCode.SUCCESS
        assert drain.times.completed >= big.times.completed

    def test_drain_on_idle_engine_is_fast(self):
        platform = spr_platform()
        device = platform.driver.device("dsa0")
        space = AddressSpace()
        device.attach_space(space)
        drain = WorkDescriptor(Opcode.DRAIN, pasid=space.pasid)
        device.submit(drain)
        platform.env.run()
        assert drain.completion.status == StatusCode.SUCCESS
        assert platform.env.now < 1000.0


class TestFence:
    def test_fence_orders_batch_members(self):
        """A fenced member starts only after earlier members finish."""
        platform = spr_platform()
        device = platform.driver.device("dsa0")
        space = AddressSpace()
        device.attach_space(space)
        first, _s1, _d1 = make_copy(space, size=1 * MB)
        fenced, _s2, _d2 = make_copy(
            space,
            size=4 * KB,
            flags=DescriptorFlags.REQUEST_COMPLETION
            | DescriptorFlags.BLOCK_ON_FAULT
            | DescriptorFlags.FENCE,
        )
        batch = BatchDescriptor(descriptors=[first, fenced], pasid=space.pasid)
        device.submit(batch)
        platform.env.run()
        assert fenced.times.dispatched is None or True  # members aren't re-dispatched
        assert fenced.times.completed > first.times.completed

    def test_unfenced_members_overlap(self):
        platform = spr_platform()
        device = platform.driver.device("dsa0")
        space = AddressSpace()
        device.attach_space(space)
        first, _s1, _d1 = make_copy(space, size=1 * MB)
        second, _s2, _d2 = make_copy(space, size=4 * KB)
        batch = BatchDescriptor(descriptors=[first, second], pasid=space.pasid)
        device.submit(batch)
        platform.env.run()
        # The small member finishes long before the 1 MB one.
        assert second.times.completed < first.times.completed


class TestCacheControl:
    def test_cache_control_allocates_into_main_llc(self):
        platform = spr_platform()
        device = platform.driver.device("dsa0")
        space = AddressSpace()
        device.attach_space(space)
        descriptor, _s, _d = make_copy(
            space,
            size=256 * KB,
            flags=DescriptorFlags.REQUEST_COMPLETION
            | DescriptorFlags.BLOCK_ON_FAULT
            | DescriptorFlags.CACHE_CONTROL,
        )
        device.submit(descriptor)
        platform.env.run()
        llc = platform.memsys.llc
        assert llc.occupancy(device.agent) >= 256 * KB

    def test_default_writes_go_to_io_ways(self):
        platform = spr_platform()
        device = platform.driver.device("dsa0")
        space = AddressSpace()
        device.attach_space(space)
        descriptor, _s, _d = make_copy(space, size=256 * KB)
        device.submit(descriptor)
        platform.env.run()
        llc = platform.memsys.llc
        # All of the device's footprint sits in the DDIO partition.
        assert llc._io.get(device.agent, 0.0) > 0
        assert llc._main.get(device.agent, 0.0) == 0.0


class TestSvmSharing:
    def test_two_processes_share_one_swq(self):
        """F1: PASID-tagged descriptors from different processes."""
        platform = spr_platform(
            device_config=DeviceConfig.single(wq_size=32, mode=WqMode.SHARED)
        )
        device = platform.driver.device("dsa0")
        rng = make_rng(3)
        descriptors = []
        for _process in range(3):
            space = AddressSpace()
            platform.open_portal("dsa0", 0, space)
            descriptor, src, dst = make_copy(space, size=8 * KB, backed=True)
            src.fill_random(rng)
            descriptors.append((descriptor, src, dst))
            device.submit(descriptor)
        platform.env.run()
        for descriptor, src, dst in descriptors:
            assert descriptor.completion.status == StatusCode.SUCCESS
            assert np.array_equal(dst.data, src.data)

    def test_pasids_isolated(self):
        """A descriptor cannot reach another process's buffers: the
        translation fails in its own PASID's space (translation fault)."""
        platform = spr_platform(
            device_config=DeviceConfig.single(wq_size=32, mode=WqMode.SHARED)
        )
        device = platform.driver.device("dsa0")
        space_a = AddressSpace()
        space_b = AddressSpace()
        platform.open_portal("dsa0", 0, space_a)
        platform.open_portal("dsa0", 0, space_b)
        buffer_b = space_b.allocate(4 * KB)
        space_b.allocate(1)  # keep B's layout ahead of A's
        rogue = WorkDescriptor(
            Opcode.MEMMOVE,
            pasid=space_a.pasid,
            src=buffer_b.va,
            dst=buffer_b.va,
            size=4 * KB,
        )
        device.submit(rogue)
        platform.env.run()
        assert rogue.completion.status == StatusCode.PAGE_FAULT
        assert rogue.completion.fault_address == buffer_b.va


class TestInterruptCompletion:
    def test_interrupt_mode_microbench(self):
        from repro.runtime.wait import WaitMode
        from repro.workloads.microbench import MicrobenchConfig, run_dsa_microbench

        cfg = MicrobenchConfig(
            transfer_size=16 * KB,
            queue_depth=1,
            iterations=20,
            wait_mode=WaitMode.INTERRUPT,
        )
        result = run_dsa_microbench(cfg)
        assert result.operations == 20
        # Interrupt delivery adds over 2us per offload vs polling.
        spin = run_dsa_microbench(
            MicrobenchConfig(transfer_size=16 * KB, queue_depth=1, iterations=20)
        )
        assert result.elapsed_ns > spin.elapsed_ns


class ModelBug(Exception):
    pass


class TestModelErrors:
    """An exception raised inside a data phase surfaces from ``env.run()``."""

    @pytest.mark.parametrize(
        "flags, fault_page",
        [
            (DescriptorFlags.REQUEST_COMPLETION | DescriptorFlags.BLOCK_ON_FAULT, None),
            (DescriptorFlags.REQUEST_COMPLETION, 2),  # BOF=0 partial head
        ],
        ids=["full", "partial_head"],
    )
    def test_execute_error_surfaces_and_frees_the_read_buffer(
        self, monkeypatch, flags, fault_page
    ):
        from repro.faults.inject import injection
        from repro.faults.plan import FaultPlan

        platform = spr_platform()
        device = platform.driver.device("dsa0")
        space = AddressSpace()
        device.attach_space(space)
        descriptor, src, _dst = make_copy(space, size=16 * KB, flags=flags, backed=True)
        src.data[:] = 7

        def broken(work, space):
            raise ModelBug(work.size)

        monkeypatch.setattr(ops, "execute", broken)
        scripted = () if fault_page is None else (src.va + fault_page * 4 * KB,)
        device.submit(descriptor)
        with injection(FaultPlan(seed=1, scripted_vas=scripted)):
            with pytest.raises(ModelBug):
                platform.env.run()
        (engine,) = [pe for group in device.groups.values() for pe in group.engines]
        assert engine.free_read_buffers == engine.read_buffers
        assert descriptor.completion.status == StatusCode.NONE
