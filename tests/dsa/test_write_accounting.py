"""Leaky-DMA write accounting: what a descriptor adds to the device's
in-flight write footprint at submit, and that every way it can finish
takes it out again.

``DsaDevice.submit`` adds ``estimate_write_bytes`` to
``_inflight_write_bytes`` and publishes it to the LLC as the device's
I/O stream ``(footprint, demanded write rate)``.  Once every submitted
descriptor has finished, both must be back to zero, or a phantom
footprint pushes later descriptors into the leaky-DMA regime.
"""

import pytest

from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.device import estimate_write_bytes
from repro.dsa.errors import StatusCode
from repro.dsa.opcodes import MAX_BATCH_SIZE, Opcode
from repro.mem.address import AddressSpace
from repro.platform import spr_platform

KB = 1024

#: Destination bytes per opcode for a ``size``-byte descriptor.
EXPECTED = {
    Opcode.NOOP: lambda size: 0,
    Opcode.BATCH: lambda size: 0,
    Opcode.DRAIN: lambda size: 0,
    Opcode.MEMMOVE: lambda size: size,
    Opcode.FILL: lambda size: size,
    Opcode.COMPARE: lambda size: 0,
    Opcode.COMPARE_PATTERN: lambda size: 0,
    Opcode.CREATE_DELTA: lambda size: max(1, size // 8),
    Opcode.APPLY_DELTA: lambda size: size,
    Opcode.DUALCAST: lambda size: 2 * size,
    Opcode.CRCGEN: lambda size: 0,
    Opcode.COPY_CRC: lambda size: size,
    Opcode.DIF_CHECK: lambda size: 0,
    Opcode.DIF_INSERT: lambda size: size,
    Opcode.DIF_STRIP: lambda size: size,
    Opcode.DIF_UPDATE: lambda size: size,
    Opcode.CACHE_FLUSH: lambda size: 0,
}


class TestEstimateWriteBytes:
    def test_table_covers_every_opcode(self):
        assert set(EXPECTED) == set(Opcode)

    @pytest.mark.parametrize("size", [1, 7, 8, 4 * KB, 3 * KB + 5])
    @pytest.mark.parametrize("opcode", list(Opcode), ids=lambda op: op.name)
    def test_every_opcode(self, opcode, size):
        descriptor = WorkDescriptor(opcode, size=size)
        assert estimate_write_bytes(descriptor) == EXPECTED[opcode](size)

    def test_dualcast_writes_both_destinations(self):
        assert estimate_write_bytes(WorkDescriptor(Opcode.DUALCAST, size=4 * KB)) == 8 * KB

    def test_create_delta_charges_an_eighth_at_least_one_byte(self):
        assert estimate_write_bytes(WorkDescriptor(Opcode.CREATE_DELTA, size=64)) == 8
        assert estimate_write_bytes(WorkDescriptor(Opcode.CREATE_DELTA, size=7)) == 1

    @pytest.mark.parametrize(
        "opcode", [Opcode.COMPARE, Opcode.COMPARE_PATTERN, Opcode.CRCGEN, Opcode.DIF_CHECK]
    )
    def test_read_only_ops_write_nothing(self, opcode):
        assert estimate_write_bytes(WorkDescriptor(opcode, size=64 * KB)) == 0

    def test_batch_sums_its_members(self):
        batch = BatchDescriptor(
            descriptors=[
                WorkDescriptor(Opcode.MEMMOVE, size=4 * KB),
                WorkDescriptor(Opcode.DUALCAST, size=1 * KB),
                WorkDescriptor(Opcode.CRCGEN, size=2 * KB),
                WorkDescriptor(Opcode.CREATE_DELTA, size=80),
            ]
        )
        assert estimate_write_bytes(batch) == 4 * KB + 2 * KB + 0 + 10


def _device():
    platform = spr_platform()
    device = platform.driver.device("dsa0")
    space = AddressSpace()
    device.attach_space(space)
    return platform, device, space


def _memmove(space, size=4 * KB):
    src = space.allocate(size)
    dst = space.allocate(size)
    return WorkDescriptor(
        Opcode.MEMMOVE, pasid=space.pasid, src=src.va, dst=dst.va, size=size
    )


def _assert_drained(platform, device):
    assert device._inflight_write_bytes == 0.0
    assert platform.memsys.llc._io_streams[device.name] == (0.0, 0.0)


class TestInflightWriteBytesDrain:
    """Every path a submitted descriptor can end on drains its estimate."""

    def test_valid_work_descriptor(self):
        platform, device, space = _device()
        descriptor = _memmove(space)
        assert device.submit(descriptor)
        assert device._inflight_write_bytes == 4 * KB
        platform.env.run()
        assert descriptor.completion.status == StatusCode.SUCCESS
        _assert_drained(platform, device)

    def test_invalid_work_descriptor(self):
        platform, device, space = _device()
        # A FILL with a 12-byte pattern fails validation in the PE but
        # was charged its full size at submit.
        descriptor = _memmove(space)
        descriptor.opcode = Opcode.FILL
        descriptor.pattern_bytes = 12
        assert device.submit(descriptor)
        assert device._inflight_write_bytes == 4 * KB
        platform.env.run()
        assert descriptor.completion.status == StatusCode.INVALID_FLAGS
        _assert_drained(platform, device)

    def test_valid_batch(self):
        platform, device, space = _device()
        batch = BatchDescriptor(
            descriptors=[_memmove(space) for _ in range(4)], pasid=space.pasid
        )
        assert device.submit(batch)
        assert device._inflight_write_bytes == 16 * KB
        platform.env.run()
        assert batch.completion.status == StatusCode.SUCCESS
        _assert_drained(platform, device)

    def test_invalid_batch(self):
        platform, device, space = _device()
        members = [
            WorkDescriptor(Opcode.MEMMOVE, pasid=space.pasid, size=4 * KB)
            for _ in range(MAX_BATCH_SIZE + 1)
        ]
        batch = BatchDescriptor(descriptors=members, pasid=space.pasid)
        assert device.submit(batch)
        assert device._inflight_write_bytes == (MAX_BATCH_SIZE + 1) * 4 * KB
        platform.env.run()
        assert batch.completion.status == StatusCode.INVALID_SIZE
        _assert_drained(platform, device)

    def test_batch_aborted_at_dispatch(self):
        platform, device, space = _device()
        batch = BatchDescriptor(
            descriptors=[_memmove(space) for _ in range(4)], pasid=space.pasid
        )
        assert device.submit(batch)
        # Disabled between enqueue and dispatch: the engine aborts it.
        device.enabled = False
        platform.env.run()
        assert batch.completion.status == StatusCode.DEVICE_DISABLED
        _assert_drained(platform, device)

    def test_work_descriptor_aborted_at_dispatch(self):
        platform, device, space = _device()
        descriptor = _memmove(space)
        assert device.submit(descriptor)
        device.enabled = False
        platform.env.run()
        assert descriptor.completion.status == StatusCode.DEVICE_DISABLED
        _assert_drained(platform, device)

    def test_abort_queued(self):
        platform, device, space = _device()
        queued = [
            _memmove(space),
            BatchDescriptor(
                descriptors=[_memmove(space) for _ in range(3)], pasid=space.pasid
            ),
        ]
        for descriptor in queued:
            assert device.submit(descriptor)
        assert device._inflight_write_bytes == 16 * KB
        assert device.abort_queued() == 2
        platform.env.run()
        assert all(d.completion.status == StatusCode.DEVICE_DISABLED for d in queued)
        _assert_drained(platform, device)
