"""Unit tests for the DML and DTO library models."""

import numpy as np
import pytest

from repro.dsa.errors import StatusCode
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.mem import AddressSpace
from repro.platform import spr_platform
from repro.runtime.dml import Dml, DmlPath
from repro.runtime.dto import Dto
from repro.sim import make_rng

KB = 1024


def build_stack(backed=False, n_portals=1, auto_threshold=4096):
    platform = spr_platform(n_devices=max(1, n_portals))
    space = AddressSpace()
    portals = [
        platform.open_portal(f"dsa{i}", 0, space) for i in range(n_portals)
    ]
    dml = Dml(
        platform.env,
        portals,
        kernels=platform.kernels,
        costs=platform.costs,
        space=space,
        auto_threshold=auto_threshold,
    )
    return platform, space, dml


@pytest.mark.parametrize("block_on_fault", [False, True])
@pytest.mark.parametrize("cache_control", [False, True])
def test_descriptor_flags_table_matches_flag_arithmetic(block_on_fault, cache_control):
    expected = DescriptorFlags.REQUEST_COMPLETION
    if block_on_fault:
        expected |= DescriptorFlags.BLOCK_ON_FAULT
    if cache_control:
        expected |= DescriptorFlags.CACHE_CONTROL
    _platform, space, dml = build_stack()
    src, dst = space.allocate(KB), space.allocate(KB)
    descriptor = dml.make_descriptor(
        Opcode.MEMMOVE,
        KB,
        src=src,
        dst=dst,
        cache_control=cache_control,
        block_on_fault=block_on_fault,
    )
    assert descriptor.flags == expected
    assert type(descriptor.flags) is DescriptorFlags
    assert descriptor.block_on_fault is block_on_fault
    assert descriptor.cache_control is cache_control


def run_call(platform, generator):
    out = {}

    def proc(env):
        out["result"] = yield from generator

    platform.env.process(proc(platform.env))
    platform.env.run()
    return out["result"]


class TestDmlPaths:
    def test_auto_small_goes_software(self):
        platform, space, dml = build_stack()
        core = platform.core(0)
        src = space.allocate(KB)
        dst = space.allocate(KB)
        desc = dml.make_descriptor(Opcode.MEMMOVE, KB, src=src, dst=dst)
        status = run_call(platform, dml.execute(core, desc))
        assert status == StatusCode.SUCCESS
        assert dml.jobs_software == 1
        assert dml.jobs_hardware == 0

    def test_auto_large_goes_hardware(self):
        platform, space, dml = build_stack()
        core = platform.core(0)
        src = space.allocate(64 * KB)
        dst = space.allocate(64 * KB)
        desc = dml.make_descriptor(Opcode.MEMMOVE, 64 * KB, src=src, dst=dst)
        status = run_call(platform, dml.execute(core, desc))
        assert status == StatusCode.SUCCESS
        assert dml.jobs_hardware == 1

    def test_forced_software_path(self):
        platform, space, dml = build_stack()
        core = platform.core(0)
        src = space.allocate(64 * KB)
        dst = space.allocate(64 * KB)
        desc = dml.make_descriptor(Opcode.MEMMOVE, 64 * KB, src=src, dst=dst)
        run_call(platform, dml.execute(core, desc, path=DmlPath.SOFTWARE))
        assert dml.jobs_hardware == 0

    def test_hardware_path_without_portals_raises(self):
        platform = spr_platform()
        dml = Dml(platform.env, portals=[])
        core = platform.core(0)
        desc = dml.make_descriptor(Opcode.FILL, KB)
        with pytest.raises(RuntimeError, match="no portals"):
            run_call(platform, dml.execute(core, desc, path=DmlPath.HARDWARE))

    def test_software_functional_execution(self):
        platform = spr_platform()
        space = AddressSpace()
        dml = Dml(platform.env, [platform.open_portal("dsa0", 0, space)], space=space)
        core = platform.core(0)
        src = space.allocate(KB, backed=True)
        dst = space.allocate(KB, backed=True)
        src.fill_random(make_rng(5))
        desc = dml.make_descriptor(Opcode.MEMMOVE, KB, src=src, dst=dst)
        run_call(platform, dml.execute(core, desc, path=DmlPath.SOFTWARE))
        assert np.array_equal(dst.data, src.data)

    def test_hardware_functional_execution(self):
        platform = spr_platform()
        space = AddressSpace()
        dml = Dml(platform.env, [platform.open_portal("dsa0", 0, space)], space=space)
        core = platform.core(0)
        src = space.allocate(32 * KB, backed=True)
        dst = space.allocate(32 * KB, backed=True)
        src.fill_random(make_rng(6))
        desc = dml.make_descriptor(Opcode.MEMMOVE, 32 * KB, src=src, dst=dst)
        run_call(platform, dml.execute(core, desc, path=DmlPath.HARDWARE))
        assert np.array_equal(dst.data, src.data)

    def test_async_submit_then_wait(self):
        platform, space, dml = build_stack()
        core = platform.core(0)
        src = space.allocate(64 * KB)
        dst = space.allocate(64 * KB)
        desc = dml.make_descriptor(Opcode.MEMMOVE, 64 * KB, src=src, dst=dst)

        def proc(env):
            job = yield from dml.submit_async(core, desc)
            assert not job.done  # overlap window exists
            status = yield from dml.wait(core, job)
            assert status == StatusCode.SUCCESS

        platform.env.process(proc(platform.env))
        platform.env.run()
        assert desc.completion.done

    def test_load_balancing_round_robin(self):
        platform, space, dml = build_stack(n_portals=2)
        core = platform.core(0)

        def proc(env):
            for _ in range(4):
                src = space.allocate(16 * KB)
                dst = space.allocate(16 * KB)
                desc = dml.make_descriptor(Opcode.MEMMOVE, 16 * KB, src=src, dst=dst)
                job = yield from dml.submit_async(core, desc)
                yield from dml.wait(core, job)

        platform.env.process(proc(platform.env))
        platform.env.run()
        dev0 = platform.driver.device("dsa0").descriptors_completed
        dev1 = platform.driver.device("dsa1").descriptors_completed
        assert dev0 == 2 and dev1 == 2

    def test_make_batch_rejects_empty(self):
        with pytest.raises(ValueError):
            Dml.make_batch([])


class TestDto:
    def test_small_call_stays_on_cpu(self):
        platform, space, dml = build_stack()
        dto = Dto(dml, min_size=8 * KB)
        core = platform.core(0)
        src = space.allocate(KB)
        dst = space.allocate(KB)
        run_call(platform, dto.memcpy(core, dst, src, KB))
        assert dto.stats.software == 1
        assert dto.stats.offloaded == 0

    def test_large_call_offloads(self):
        platform, space, dml = build_stack()
        dto = Dto(dml, min_size=8 * KB)
        core = platform.core(0)
        src = space.allocate(64 * KB)
        dst = space.allocate(64 * KB)
        run_call(platform, dto.memcpy(core, dst, src, 64 * KB))
        assert dto.stats.offloaded == 1
        assert dto.stats.bytes_offloaded == 64 * KB

    def test_memset_pattern_replication(self):
        platform = spr_platform()
        space = AddressSpace()
        dml = Dml(platform.env, [platform.open_portal("dsa0", 0, space)], space=space)
        dto = Dto(dml, min_size=1)
        core = platform.core(0)
        dst = space.allocate(16 * KB, backed=True)
        run_call(platform, dto.memset(core, dst, 0xAB, 16 * KB))
        assert (dst.data == 0xAB).all()

    def test_memcmp_equal_and_differing(self):
        platform = spr_platform()
        space = AddressSpace()
        dml = Dml(platform.env, [platform.open_portal("dsa0", 0, space)], space=space)
        dto = Dto(dml, min_size=1)
        core = platform.core(0)
        a = space.allocate(16 * KB, backed=True)
        b = space.allocate(16 * KB, backed=True)
        a.fill_random(make_rng(7))
        b.data[:] = a.data
        assert run_call(platform, dto.memcmp(core, a, b, 16 * KB)) == 0
        b.data[100] ^= 1
        assert run_call(platform, dto.memcmp(core, a, b, 16 * KB)) == 1

    def test_fault_fallback_redoes_on_cpu(self):
        platform = spr_platform()
        space = AddressSpace()
        dml = Dml(platform.env, [platform.open_portal("dsa0", 0, space)], space=space)
        dto = Dto(dml, min_size=1)
        core = platform.core(0)
        src = space.allocate(16 * KB, prefault=False)
        dst = space.allocate(16 * KB, prefault=True)
        # DTO submits without BLOCK_ON_FAULT? The model uses DML's
        # default (block-on-fault set), so force the faulting path by
        # stripping the flag.
        descriptor = dml.make_descriptor(Opcode.MEMMOVE, 16 * KB, src=src, dst=dst)
        from repro.dsa.opcodes import DescriptorFlags

        descriptor.flags = DescriptorFlags.REQUEST_COMPLETION
        out = {}

        def proc(env):
            status = yield from dml.execute(core, descriptor, path=DmlPath.HARDWARE)
            if status is StatusCode.PAGE_FAULT:
                dto.stats.fault_fallbacks += 1
                status = yield from dml.run_software(core, descriptor)
            out["status"] = status

        platform.env.process(proc(platform.env))
        platform.env.run()
        assert out["status"] == StatusCode.SUCCESS
        assert dto.stats.fault_fallbacks == 1

    def test_negative_min_size_rejected(self):
        platform, space, dml = build_stack()
        with pytest.raises(ValueError):
            Dto(dml, min_size=-1)
