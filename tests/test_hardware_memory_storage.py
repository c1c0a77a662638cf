"""Tests for the DDR4 subsystem and node-local storage."""

import pytest

from repro.hardware.memory import DDR4Subsystem, OutOfMemoryError
from repro.hardware.storage import NVMeDrive


class TestDDR4:
    def _mem(self):
        mem = DDR4Subsystem()
        mem.initialise()
        return mem

    def test_allocation_requires_training(self):
        mem = DDR4Subsystem()
        with pytest.raises(RuntimeError, match="initialisation"):
            mem.allocate("x", 100)

    def test_allocate_and_release(self):
        mem = self._mem()
        mem.allocate("hpl", 1000)
        assert mem.allocated_bytes == 1000
        assert mem.release("hpl") == 1000
        assert mem.allocated_bytes == 0

    def test_release_unknown_owner_returns_zero(self):
        assert self._mem().release("ghost") == 0

    def test_overcommit_raises(self):
        mem = self._mem()
        with pytest.raises(OutOfMemoryError):
            mem.allocate("greedy", mem.capacity_bytes + 1)

    def test_cumulative_allocations_per_owner(self):
        mem = self._mem()
        mem.allocate("job", 100)
        mem.allocate("job", 200)
        assert mem.allocated_bytes == 300
        assert mem.release("job") == 300

    def test_reinitialise_clears_allocations(self):
        # DRAM does not survive a power cycle.
        mem = self._mem()
        mem.allocate("job", 5000)
        mem.initialise()
        assert mem.allocated_bytes == 0

    def test_usage_splits_sum_to_capacity(self):
        mem = self._mem()
        mem.allocate("job", 2 * 1024 ** 3)
        usage = mem.usage()
        assert usage["used"] == 2 * 1024 ** 3
        total = sum(usage.values())
        assert total == pytest.approx(mem.capacity_bytes, rel=0.001)


class TestNVMe:
    def test_read_accounts_and_times(self):
        drive = NVMeDrive()
        dt = drive.read(1_600_000_000)
        assert dt == pytest.approx(1.0)
        assert drive.bytes_read == 1_600_000_000

    def test_write_slower_than_read(self):
        drive = NVMeDrive()
        assert drive.write(10 ** 9) > drive.read(10 ** 9)

    def test_negative_sizes_rejected(self):
        drive = NVMeDrive()
        with pytest.raises(ValueError):
            drive.read(-1)
        with pytest.raises(ValueError):
            drive.write(-1)

    def test_capacity_is_one_tb(self):
        assert NVMeDrive().capacity_bytes == 10 ** 12

