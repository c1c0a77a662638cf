"""Tests for the thermal substrate: enclosure, RC model, watchdog."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.thermal.enclosure import Enclosure, EnclosureConfig, SlotPosition
from repro.thermal.model import NodeThermalModel, ThermalRC
from repro.thermal.runaway import ThermalWatchdog

HPL_NODE_POWER_W = 5.935


class TestEnclosureGeometry:
    def test_eight_slots(self):
        assert Enclosure().n_slots == 8

    def test_blade_mapping(self):
        enclosure = Enclosure()
        assert enclosure.blade_of(0) == 0
        assert enclosure.blade_of(7) == 3
        with pytest.raises(IndexError):
            enclosure.blade_of(8)

    def test_edge_and_centre_positions(self):
        enclosure = Enclosure()
        assert enclosure.position_of(0) is SlotPosition.EDGE
        assert enclosure.position_of(3) is SlotPosition.CENTRE
        assert enclosure.position_of(4) is SlotPosition.CENTRE
        assert enclosure.position_of(7) is SlotPosition.EDGE


class TestOriginalConfiguration:
    ENCLOSURE = Enclosure(EnclosureConfig.original())

    def test_slot4_exceeds_trip_under_hpl(self):
        """The runaway slot must settle above the 107 °C trip."""
        model = NodeThermalModel(self.ENCLOSURE, slot=4)
        assert model.steady_state_soc_c(HPL_NODE_POWER_W) > 107.0

    def test_other_centre_slots_hot_but_below_trip(self):
        for slot in (2, 3, 5):
            model = NodeThermalModel(self.ENCLOSURE, slot=slot)
            steady = model.steady_state_soc_c(HPL_NODE_POWER_W)
            assert 68.0 < steady < 107.0, f"slot {slot}: {steady}"

    def test_edge_slots_around_70(self):
        # §V-C: the non-runaway nodes topped out around 71 °C.
        for slot in (0, 1, 6, 7):
            model = NodeThermalModel(self.ENCLOSURE, slot=slot)
            assert model.steady_state_soc_c(HPL_NODE_POWER_W) == \
                pytest.approx(68, abs=4)

    def test_centre_preheat(self):
        assert self.ENCLOSURE.local_ambient(4) > self.ENCLOSURE.local_ambient(0)


class TestMitigatedConfiguration:
    ENCLOSURE = Enclosure(EnclosureConfig.mitigated())

    def test_hottest_slot_near_39(self):
        # §V-C: mitigation brought the hottest node from 71 °C to 39 °C.
        steady = [NodeThermalModel(self.ENCLOSURE, slot=s)
                  .steady_state_soc_c(HPL_NODE_POWER_W)
                  for s in range(8)]
        assert max(steady) == pytest.approx(39.0, abs=2.0)

    def test_every_slot_far_below_trip(self):
        for slot in range(8):
            model = NodeThermalModel(self.ENCLOSURE, slot=slot)
            assert model.steady_state_soc_c(HPL_NODE_POWER_W) < 45.0

    def test_mitigation_reduces_every_resistance(self):
        original = Enclosure(EnclosureConfig.original())
        mitigated = Enclosure(EnclosureConfig.mitigated())
        for slot in range(8):
            assert (mitigated.thermal_resistance(slot)
                    < original.thermal_resistance(slot))


class TestThermalRC:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalRC(resistance_k_per_w=0, capacitance_j_per_k=10)
        with pytest.raises(ValueError):
            ThermalRC(resistance_k_per_w=1, capacitance_j_per_k=-1)
        with pytest.raises(ValueError):
            ThermalRC(resistance_k_per_w=float("nan"), capacitance_j_per_k=10)

    def test_steady_state(self):
        rc = ThermalRC(resistance_k_per_w=10.0, capacitance_j_per_k=30.0)
        assert rc.steady_state_c(5.0, ambient_c=25.0) == 75.0

    def test_exact_exponential_step(self):
        rc = ThermalRC(resistance_k_per_w=10.0, capacitance_j_per_k=30.0,
                       temperature_c=25.0)
        rc.step(dt_s=300.0, power_w=5.0, ambient_c=25.0)
        expected = 75.0 + (25.0 - 75.0) * math.exp(-300.0 / 300.0)
        assert rc.temperature_c == pytest.approx(expected)

    def test_negative_step_rejected(self):
        rc = ThermalRC(resistance_k_per_w=1.0, capacitance_j_per_k=1.0)
        with pytest.raises(ValueError):
            rc.step(-1.0, 1.0, 25.0)

    def test_nan_step_rejected(self):
        rc = ThermalRC(resistance_k_per_w=1.0, capacitance_j_per_k=1.0)
        for _ in range(2):  # with no decay factor kept, then with one
            before = rc.temperature_c
            with pytest.raises(ValueError):
                rc.step(float("nan"), 1.0, 25.0)
            assert rc.temperature_c == before
            rc.step(1.0, 1.0, 25.0)

    @given(dt=st.floats(min_value=0.01, max_value=10000.0),
           power=st.floats(min_value=0.0, max_value=20.0),
           start=st.floats(min_value=0.0, max_value=150.0))
    @settings(max_examples=100, deadline=None)
    def test_step_never_overshoots_steady_state(self, dt, power, start):
        """Property: the exponential step stays between start and target."""
        rc = ThermalRC(resistance_k_per_w=8.0, capacitance_j_per_k=30.0,
                       temperature_c=start)
        target = rc.steady_state_c(power, ambient_c=25.0)
        after = rc.step(dt, power, ambient_c=25.0)
        low, high = min(start, target), max(start, target)
        assert low - 1e-9 <= after <= high + 1e-9

    @given(dts=st.lists(st.floats(min_value=0.1, max_value=100.0),
                        min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_step_composition_independent_of_slicing(self, dts):
        """Property: exact integration — many small steps == one big step."""
        sliced = ThermalRC(resistance_k_per_w=8.0, capacitance_j_per_k=30.0)
        whole = ThermalRC(resistance_k_per_w=8.0, capacitance_j_per_k=30.0)
        for dt in dts:
            sliced.step(dt, 5.0, 25.0)
        whole.step(sum(dts), 5.0, 25.0)
        assert sliced.temperature_c == pytest.approx(whole.temperature_c,
                                                     abs=1e-9)


class TestNodeThermalModel:
    def test_hwmon_updates_on_step(self):
        from repro.hardware.sensors import HwmonTree

        tree = HwmonTree()
        model = NodeThermalModel(Enclosure(), slot=0, hwmon=tree)
        model.step(1000.0, board_power_w=5.9)
        assert tree.read_celsius("cpu_temp") > 30.0
        assert tree.read_celsius("mb_temp") == 25.0  # owed to settle
        model.settle(1000.0, 1, board_power_w=5.9)
        assert tree.read_celsius("mb_temp") > 25.0

    def test_set_enclosure_changes_resistance_in_place(self):
        model = NodeThermalModel(Enclosure(EnclosureConfig.original()), slot=4)
        r_before = model.soc.resistance_k_per_w
        model.set_enclosure(Enclosure(EnclosureConfig.mitigated()))
        assert model.soc.resistance_k_per_w < r_before

    def test_motherboard_cooler_than_soc(self):
        model = NodeThermalModel(Enclosure(), slot=4)
        for _ in range(100):
            model.step(10.0, board_power_w=5.9)
        model.settle(10.0, 100, board_power_w=5.9)
        assert 25.0 < model.motherboard.temperature_c < model.soc.temperature_c


class TestWatchdog:
    def test_trip_fires_callback_once(self):
        tripped = []
        watchdog = ThermalWatchdog(on_trip=tripped.append)
        watchdog.observe(1.0, "n1", 106.0)
        watchdog.observe(2.0, "n1", 108.0)
        watchdog.observe(3.0, "n1", 120.0)
        assert tripped == ["n1"]

    def test_warning_recorded_before_trip(self):
        watchdog = ThermalWatchdog()
        watchdog.observe(1.0, "n1", 95.0)
        watchdog.observe(2.0, "n1", 107.5)
        kinds = [e.kind for e in watchdog.events]
        assert kinds == ["warning", "trip"]

    def test_reset_rearms(self):
        tripped = []
        watchdog = ThermalWatchdog(on_trip=tripped.append)
        watchdog.observe(1.0, "n1", 110.0)
        watchdog.reset("n1")
        watchdog.observe(2.0, "n1", 110.0)
        assert tripped == ["n1", "n1"]

    def test_tripped_nodes_in_order(self):
        watchdog = ThermalWatchdog()
        watchdog.observe(1.0, "n2", 108.0)
        watchdog.observe(2.0, "n1", 109.0)
        assert watchdog.tripped_nodes() == ["n2", "n1"]
