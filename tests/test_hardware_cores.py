"""Tests for the U74 core complex and activity accounting."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cores import CoreActivity, CoreComplex, U74Core


def run(core, activity):
    """One slice of ``activity`` on ``core``."""
    core.advance(activity.counts(core.soc.clock_hz, core.MAX_IPC))


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

    @settings(max_examples=200, deadline=None)
    @given(duration_s=st.floats(min_value=0.0, max_value=1e4),
           ipc=st.floats(min_value=0.0, max_value=10.0),
           flop_fraction=st.floats(min_value=0.0, max_value=1.0),
           l2_miss_rate=st.floats(min_value=0.0, max_value=10.0),
           utilisation=st.floats(min_value=0.0, max_value=1.0),
           clock_hz=st.sampled_from([1.2e9, 0.6e9, 1.0]),
           max_ipc=st.sampled_from([2.0, 1.0, 0.0]))
    def test_counts_are_non_negative_integers(
            self, duration_s, ipc, flop_fraction, l2_miss_rate, utilisation,
            clock_hz, max_ipc):
        # The validation in __post_init__ is the only check between an
        # activity and the HPM counters, so every increment an accepted
        # activity yields must be a non-negative integer.
        activity = CoreActivity(duration_s=duration_s, ipc=ipc,
                                flop_fraction=flop_fraction,
                                l2_miss_rate=l2_miss_rate,
                                utilisation=utilisation)
        counts = activity.counts(clock_hz, max_ipc)
        assert len(counts) == 5
        assert all(type(n) is int and n >= 0 for n in counts)

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
            run(core, CoreActivity(duration_s=1.0))

    def test_cycles_accumulate_at_clock_rate(self, clocked_core):
        run(clocked_core, CoreActivity(duration_s=2.0, ipc=1.0))
        assert clocked_core.hpm.cycle == int(2.0 * 1.2e9)

    def test_instructions_respect_ipc(self, clocked_core):
        run(clocked_core, CoreActivity(duration_s=1.0, ipc=1.5))
        assert clocked_core.hpm.instret == pytest.approx(1.5 * 1.2e9, rel=1e-6)

    def test_ipc_clamped_at_dual_issue(self, clocked_core):
        run(clocked_core, CoreActivity(duration_s=1.0, ipc=1.9))
        first = clocked_core.hpm.instret
        other = U74Core(core_id=1)
        other.start_clock()
        # ipc above the hardware ceiling is clamped to 2.0 inside advance.
        run(other, CoreActivity(duration_s=1.0, ipc=2.0))
        assert other.hpm.instret == int(2.0 * 1.2e9)
        assert first < other.hpm.instret

    def test_partial_utilisation_scales_instructions(self, clocked_core):
        run(clocked_core, CoreActivity(duration_s=1.0, ipc=1.0,
                                          utilisation=0.5))
        assert clocked_core.hpm.instret == pytest.approx(0.6e9, rel=1e-6)

    def test_flops_need_programmable_counters(self, clocked_core):
        # Stock U-Boot: the fp_ops counter silently reads zero.
        run(clocked_core, CoreActivity(duration_s=1.0, ipc=1.0,
                                          flop_fraction=0.5))
        assert clocked_core.hpm.snapshot()["fp_ops"] == 0
        clocked_core.hpm.enable_programmable()
        run(clocked_core, CoreActivity(duration_s=1.0, ipc=1.0,
                                          flop_fraction=0.5))
        assert clocked_core.hpm.snapshot()["fp_ops"] > 0

    def test_rejected_activity_changes_no_counter(self, clocked_core):
        clocked_core.hpm.enable_programmable()
        run(clocked_core, CoreActivity(duration_s=1.0, ipc=1.0,
                                          flop_fraction=0.4,
                                          l2_miss_rate=0.01))
        before = clocked_core.hpm.snapshot()
        for bad in ({"flop_fraction": -0.5}, {"l2_miss_rate": -0.01}):
            with pytest.raises(ValueError):
                run(clocked_core, CoreActivity(duration_s=1.0, ipc=1.0,
                                                  **bad))
        assert clocked_core.hpm.snapshot() == before

    def test_advance_adds_summed_counts(self, clocked_core):
        clocked_core.hpm.enable_programmable()
        activity = CoreActivity(duration_s=1.0, ipc=1.0, flop_fraction=0.4,
                                l2_miss_rate=0.01)
        once = activity.counts(clocked_core.soc.clock_hz, U74Core.MAX_IPC)
        clocked_core.advance(tuple(3 * n for n in once))
        reference = U74Core(core_id=1)
        reference.start_clock()
        reference.hpm.enable_programmable()
        for _ in range(3):
            run(reference, activity)
        assert clocked_core.hpm.snapshot() == reference.hpm.snapshot()


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

    def test_idle_run_matches_one_idle_slice_per_tick(self):
        complex_ = CoreComplex()
        complex_.start_clocks()
        reference = U74Core(core_id=0)
        reference.start_clock()
        complex_.idle(7.5, 3)
        for _ in range(3):
            run(reference, CoreActivity(duration_s=7.5, ipc=0.02,
                                        utilisation=0.01))
        for core in complex_:
            assert core.hpm.snapshot() == reference.hpm.snapshot()

    def test_busy_run_sums_each_slice(self):
        complex_ = CoreComplex()
        complex_.start_clocks()
        reference = U74Core(core_id=0)
        reference.start_clock()
        activity = CoreActivity(duration_s=1.0, ipc=1.2, flop_fraction=0.4,
                                l2_miss_rate=0.01, utilisation=0.7)
        ipcs = [0.93, 1.21, 1.17, 2.6]
        complex_.cores[0].hpm.enable_programmable()
        reference.hpm.enable_programmable()
        complex_.advance(activity, ipcs)
        for ipc in ipcs:
            run(reference, dataclasses.replace(activity, ipc=ipc))
        assert complex_.cores[0].hpm.snapshot() == reference.hpm.snapshot()
        for core in complex_.cores[1:]:
            assert (core.hpm.cycle, core.hpm.instret) == (
                reference.hpm.cycle, reference.hpm.instret)

    def test_busy_run_rejects_a_negative_ipc_before_any_counter_moves(self):
        complex_ = CoreComplex()
        complex_.start_clocks()
        with pytest.raises(ValueError, match="ipc"):
            complex_.advance(CoreActivity(duration_s=1.0), [1.0, -0.5])
        assert complex_.total_instructions() == 0

    def test_total_instructions_sums_cores(self):
        complex_ = CoreComplex()
        complex_.start_clocks()
        for core in complex_:
            run(core, CoreActivity(duration_s=1.0, ipc=1.0))
        assert complex_.total_instructions() == 4 * int(1.2e9)
