"""Tests for the U74 core complex and activity accounting."""

import dataclasses

import pytest

from repro.hardware.cores import CoreActivity, CoreComplex, U74Core


@pytest.fixture
def clocked_core():
    core = U74Core(core_id=0)
    core.power_on()
    core.start_clock()
    return core


class TestCoreActivity:
    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            CoreActivity(duration_s=-1.0)

    def test_rejects_bad_utilisation(self):
        with pytest.raises(ValueError):
            CoreActivity(duration_s=1.0, utilisation=1.5)

    def test_rejects_negative_ipc(self):
        with pytest.raises(ValueError):
            CoreActivity(duration_s=1.0, ipc=-0.1)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_rejects_flop_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match="flop_fraction"):
            CoreActivity(duration_s=1.0, flop_fraction=fraction)

    @pytest.mark.parametrize("rate", [-0.001, float("nan")])
    def test_rejects_negative_l2_miss_rate(self, rate):
        with pytest.raises(ValueError, match="l2_miss_rate"):
            CoreActivity(duration_s=1.0, l2_miss_rate=rate)

    def test_is_immutable(self):
        activity = CoreActivity(duration_s=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            activity.flop_fraction = -1.0

    def test_counts_follow_the_clock(self):
        activity = CoreActivity(duration_s=1.0, ipc=1.5, flop_fraction=0.5,
                                l2_miss_rate=0.01, utilisation=0.5)
        fast = activity.counts(1.2e9, 2.0)
        assert fast == (int(1.2e9), int(0.6e9 * 1.5), int(0.9e9 * 0.5),
                        int(0.9e9 * 0.01), int(0.9e9 * 0.3))
        # A different clock or issue cap is not served from the last result.
        assert activity.counts(0.6e9, 2.0)[0] == int(0.6e9)
        assert activity.counts(1.2e9, 1.0)[1] == int(0.6e9)
        assert activity.counts(1.2e9, 2.0) == fast


class TestU74Core:
    def test_advance_requires_clock(self):
        core = U74Core(core_id=0)
        core.power_on()
        with pytest.raises(RuntimeError, match="clock gated"):
            core.advance(CoreActivity(duration_s=1.0))

    def test_cycles_accumulate_at_clock_rate(self, clocked_core):
        clocked_core.advance(CoreActivity(duration_s=2.0, ipc=1.0))
        assert clocked_core.hpm.cycle == int(2.0 * 1.2e9)

    def test_instructions_respect_ipc(self, clocked_core):
        clocked_core.advance(CoreActivity(duration_s=1.0, ipc=1.5))
        assert clocked_core.hpm.instret == pytest.approx(1.5 * 1.2e9, rel=1e-6)

    def test_ipc_clamped_at_dual_issue(self, clocked_core):
        clocked_core.advance(CoreActivity(duration_s=1.0, ipc=1.9))
        first = clocked_core.hpm.instret
        other = U74Core(core_id=1)
        other.start_clock()
        # ipc above the hardware ceiling is clamped to 2.0 inside advance.
        other.advance(CoreActivity(duration_s=1.0, ipc=2.0))
        assert other.hpm.instret == int(2.0 * 1.2e9)
        assert first < other.hpm.instret

    def test_partial_utilisation_scales_instructions(self, clocked_core):
        clocked_core.advance(CoreActivity(duration_s=1.0, ipc=1.0,
                                          utilisation=0.5))
        assert clocked_core.hpm.instret == pytest.approx(0.6e9, rel=1e-6)

    def test_flops_need_programmable_counters(self, clocked_core):
        # Stock U-Boot: the fp_ops counter silently reads zero.
        clocked_core.advance(CoreActivity(duration_s=1.0, ipc=1.0,
                                          flop_fraction=0.5))
        assert clocked_core.hpm.read_event("fp_ops") == 0
        clocked_core.hpm.enable_programmable()
        clocked_core.advance(CoreActivity(duration_s=1.0, ipc=1.0,
                                          flop_fraction=0.5))
        assert clocked_core.hpm.read_event("fp_ops") > 0

    def test_rejected_activity_changes_no_counter(self, clocked_core):
        clocked_core.hpm.enable_programmable()
        clocked_core.advance(CoreActivity(duration_s=1.0, ipc=1.0,
                                          flop_fraction=0.4,
                                          l2_miss_rate=0.01))
        before = clocked_core.hpm.snapshot()
        for bad in ({"flop_fraction": -0.5}, {"l2_miss_rate": -0.01}):
            with pytest.raises(ValueError):
                clocked_core.advance(CoreActivity(duration_s=1.0, ipc=1.0,
                                                  **bad))
        assert clocked_core.hpm.snapshot() == before

    def test_idle_reports_zero_utilisation(self, clocked_core):
        clocked_core.idle(10.0)
        assert clocked_core.utilisation == 0.0
        assert clocked_core.hpm.cycle > 0


class TestCoreComplex:
    def test_has_four_cores_and_monitor(self):
        complex_ = CoreComplex()
        assert len(complex_) == 4
        assert complex_.monitor_core.core_id == -1

    def test_start_clocks_covers_all_cores(self):
        complex_ = CoreComplex()
        complex_.start_clocks()
        assert complex_.clock_running
        assert all(core.clock_running for core in complex_)

    def test_utilisation_is_mean_across_cores(self):
        complex_ = CoreComplex()
        complex_.start_clocks()
        complex_.cores[0].advance(CoreActivity(duration_s=1.0, utilisation=1.0))
        for core in complex_.cores[1:]:
            core.advance(CoreActivity(duration_s=1.0, utilisation=0.0))
        assert complex_.utilisation == pytest.approx(0.25)

    def test_idle_matches_per_core_idle(self):
        complex_ = CoreComplex()
        complex_.start_clocks()
        reference = U74Core(core_id=0)
        reference.start_clock()
        complex_.idle(7.5)
        reference.idle(7.5)
        for core in complex_:
            assert core.hpm.snapshot() == reference.hpm.snapshot()
            assert core.utilisation == 0.0

    def test_total_instructions_sums_cores(self):
        complex_ = CoreComplex()
        complex_.start_clocks()
        for core in complex_:
            core.advance(CoreActivity(duration_s=1.0, ipc=1.0))
        assert complex_.total_instructions() == 4 * int(1.2e9)
