"""CpuCore's per-category time accounting."""

import pytest

from repro.cpu.core import CpuCore, CycleCategory
from repro.sim import Environment


def test_each_category_keeps_its_own_total():
    core = CpuCore(Environment(), frequency_ghz=2.0)
    booked = {category: float(i + 1) for i, category in enumerate(CycleCategory)}
    for category, ns in booked.items():
        core.account(category, ns)
        core.account(category, ns)
    expected = {category: 2 * ns for category, ns in booked.items()}
    assert core.times() == expected
    assert list(core.times()) == list(CycleCategory)
    for category, ns in expected.items():
        assert core.time_in(category) == ns
        assert core.cycles_in(category) == ns * 2.0
        assert core.fraction(category) == ns / sum(expected.values())
    assert core.accounted_time == sum(expected.values())


def test_reset_and_negative_duration():
    core = CpuCore(Environment())
    core.account(CycleCategory.BUSY, 5.0)
    core.reset()
    assert core.accounted_time == 0.0
    assert core.times() == {category: 0.0 for category in CycleCategory}
    with pytest.raises(ValueError):
        core.account(CycleCategory.IDLE, -1.0)
