"""Tests for the HPM counters and the perf_events view (§IV-B)."""

import pytest

from repro.hardware.hpm import (
    FIXED_EVENTS,
    HPMUnit,
    PROGRAMMABLE_EVENTS,
    PerfEventsInterface,
)


class TestHPMUnit:
    def test_fixed_counters_always_count(self):
        unit = HPMUnit(core_id=0)
        unit.add_counts(100, 50, 0, 0, 0)
        assert unit.cycle == 100
        assert unit.instret == 50

    def test_programmable_disabled_at_boot(self):
        # §IV-B: "the remaining programmable counters ... are disabled at
        # boot time".
        unit = HPMUnit(core_id=0)
        assert not unit.programmable_enabled
        unit.add_event("fp_ops", 1000)
        assert unit.read_event("fp_ops") == 0

    def test_uboot_patch_enables_counting(self):
        unit = HPMUnit(core_id=0)
        unit.enable_programmable()
        unit.add_event("fp_ops", 1000)
        assert unit.read_event("fp_ops") == 1000

    def test_unknown_event_rejected(self):
        unit = HPMUnit(core_id=0)
        with pytest.raises(KeyError):
            unit.add_event("no_such_event", 1)
        with pytest.raises(KeyError):
            unit.read_event("no_such_event")

    def test_negative_counts_rejected(self):
        unit = HPMUnit(core_id=0)
        unit.enable_programmable()
        before = unit.snapshot()
        for position in range(5):
            counts = [10, 10, 10, 10, 10]
            counts[position] = -1
            with pytest.raises(ValueError):
                unit.add_counts(*counts)
            # Rejected before any counter moves.
            assert unit.snapshot() == before
        with pytest.raises(ValueError):
            unit.add_event("fp_ops", -1)

    def test_add_counts_is_one_slice_of_work(self):
        unit = HPMUnit(core_id=0)
        unit.add_counts(100, 50, 20, 3, 15)
        # The programmable bank discards its three events while disabled.
        assert unit.snapshot() == {
            "cycles": 100, "instructions": 50, "fp_ops": 0, "l2_miss": 0,
            "load_store": 0, "branch_mispredict": 0, "itlb_miss": 0,
            "dtlb_miss": 0}
        unit.enable_programmable()
        unit.add_counts(100, 50, 20, 3, 15)
        assert (unit.cycle, unit.instret) == (200, 100)
        assert [unit.read_event(e) for e in ("fp_ops", "l2_miss",
                                             "load_store")] == [20, 3, 15]

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
        units[2].add_counts(0, 7, 0, 0, 0)
        assert iface.read(2, "instructions") == 7
        assert iface.read(0, "instructions") == 0

    def test_read_all_matches_snapshot(self):
        iface, units = self._iface(enabled=True)
        units[1].add_counts(5, 0, 0, 0, 0)
        assert iface.read_all(1)["cycles"] == 5
