"""Tests for the HPM counters and the perf_events view (§IV-B)."""

import pytest

from repro.hardware.cores import CoreActivity, U74Core
from repro.hardware.hpm import (
    FIXED_EVENTS,
    HPMUnit,
    PROGRAMMABLE_EVENTS,
    PerfEventsInterface,
)

#: One slice of work that feeds every counter.
WORK = CoreActivity(duration_s=1e-6, ipc=1.5, flop_fraction=0.4,
                    l2_miss_rate=0.1, utilisation=0.5)


def clocked_core():
    """A core whose unit counts: the core is the HPM bank's one writer."""
    core = U74Core(core_id=0)
    core.start_clock()
    return core


def work_counts(core):
    return WORK.run_counts((WORK.ipc,), core.soc.clock_hz, core.MAX_IPC)


class TestHPMUnit:
    def test_fixed_counters_always_count(self):
        core = clocked_core()
        core.advance(work_counts(core))
        cycles, instructions = work_counts(core)[:2]
        assert cycles > 0 and instructions > 0
        assert core.hpm.cycle == cycles
        assert core.hpm.instret == instructions

    def test_programmable_disabled_at_boot(self):
        # §IV-B: "the remaining programmable counters ... are disabled at
        # boot time".
        core = clocked_core()
        unit = core.hpm
        assert not unit.programmable_enabled
        core.advance(work_counts(core))
        assert work_counts(core)[2] > 0
        assert unit.snapshot()["fp_ops"] == 0

    def test_uboot_patch_enables_counting(self):
        core = clocked_core()
        core.hpm.enable_programmable()
        core.advance(work_counts(core))
        assert core.hpm.snapshot()["fp_ops"] == work_counts(core)[2] > 0

    def test_unknown_event_rejected(self):
        iface = PerfEventsInterface([HPMUnit(core_id=0)])
        with pytest.raises(KeyError, match="unknown HPM event 'no_such_event'"):
            iface.read(0, "no_such_event")

    def test_core_advance_is_one_slice_of_work(self):
        core = clocked_core()
        unit = core.hpm
        cycles, instructions, fp_ops, l2_miss, load_store = work_counts(core)
        core.advance(work_counts(core))
        # The programmable bank discards its three events while disabled.
        assert unit.snapshot() == {
            "cycles": cycles, "instructions": instructions, "fp_ops": 0,
            "l2_miss": 0, "load_store": 0}
        unit.enable_programmable()
        core.advance(work_counts(core))
        assert (unit.cycle, unit.instret) == (2 * cycles, 2 * instructions)
        snap = unit.snapshot()
        assert [snap[e] for e in ("fp_ops", "l2_miss", "load_store")] == [
            fp_ops, l2_miss, load_store]

    def test_snapshot_contains_everything(self):
        unit = HPMUnit(core_id=0)
        snap = unit.snapshot()
        assert set(snap) == set(FIXED_EVENTS) | set(PROGRAMMABLE_EVENTS)


class TestPerfEventsInterface:
    def _iface(self, enabled=False):
        units = [HPMUnit(core_id=i) for i in range(4)]
        for unit in units:
            if enabled:
                unit.enable_programmable()
        return PerfEventsInterface(units), units

    def test_needs_at_least_one_core(self):
        with pytest.raises(ValueError):
            PerfEventsInterface([])

    def test_core_ids_sorted(self):
        iface, _units = self._iface()
        assert iface.core_ids == [0, 1, 2, 3]

    def test_only_fixed_events_with_stock_uboot(self):
        iface, _units = self._iface(enabled=False)
        assert iface.available_events(0) == ["cycles", "instructions"]

    def test_full_event_set_with_patched_uboot(self):
        iface, _units = self._iface(enabled=True)
        events = iface.available_events(0)
        assert "fp_ops" in events and "l2_miss" in events

    def test_reads_are_per_core(self):
        iface, units = self._iface()
        units[2].instret += 7
        assert iface.read(2, "instructions") == 7
        assert iface.read(0, "instructions") == 0

    def test_read_all_matches_snapshot(self):
        iface, units = self._iface(enabled=True)
        units[1].cycle += 5
        assert iface.read_all(1)["cycles"] == 5
