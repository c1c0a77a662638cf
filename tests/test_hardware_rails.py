"""Tests for power rails and shunt sensors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.rails import RAIL_NAMES, PowerRail, RailSet, ShuntSensor


class TestShuntSensor:
    def test_measurement_roundtrip_accuracy(self):
        sensor = ShuntSensor()
        assert sensor.measure(3.075) == pytest.approx(3.075, abs=1e-3)

    def test_quantisation_at_1mw(self):
        # The ADC chain quantises at 1 mW — the pll rail reads 1 mW.
        sensor = ShuntSensor()
        assert sensor.measure(0.0014) == pytest.approx(0.001)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ShuntSensor().measure(-0.1)

    @given(power=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_error_bounded_by_half_lsb(self, power):
        """Property: quantisation error ≤ half an LSB-equivalent watt."""
        sensor = ShuntSensor()
        lsb_watts = sensor.adc_lsb_volt / sensor.shunt_ohm * sensor.rail_voltage
        assert abs(sensor.measure(power) - power) <= lsb_watts / 2 + 1e-12


class TestPowerRail:
    def test_energy_integrates_zero_order_hold(self):
        rail = PowerRail("core")
        rail.set_power(2.0, now_s=0.0)
        rail.set_power(4.0, now_s=10.0)   # 2 W held for 10 s
        rail.set_power(0.0, now_s=15.0)   # 4 W held for 5 s
        assert rail.energy_j == pytest.approx(2.0 * 10 + 4.0 * 5)

    def test_time_must_not_go_backwards(self):
        rail = PowerRail("core")
        rail.set_power(1.0, now_s=5.0)
        with pytest.raises(ValueError, match="backwards"):
            rail.set_power(1.0, now_s=4.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PowerRail("core").set_power(-1.0, now_s=0.0)

    @pytest.mark.parametrize("power_w,now_s", [(float("nan"), 10.0),
                                               (3.0, float("nan"))])
    def test_nan_rejected_before_the_energy_moves(self, power_w, now_s):
        rail = PowerRail("core")
        rail.set_power(2.0, now_s=0.0)
        with pytest.raises(ValueError):
            rail.set_power(power_w, now_s=now_s)
        assert (rail.power_w, rail.energy_j) == (2.0, 0.0)
        rail.set_power(1.0, now_s=10.0)
        assert rail.energy_j == 20.0

    def test_measure_mw(self):
        rail = PowerRail("core")
        rail.set_power(3.075, now_s=0.0)
        assert rail.measure_mw() == pytest.approx(3075, abs=1)


class TestRailSet:
    def test_has_the_nine_table_vi_lines(self):
        rails = RailSet()
        assert rails.names == list(RAIL_NAMES)
        assert len(rails.names) == 9

    def test_contains(self):
        rails = RailSet()
        assert "core" in rails and "pcievph" in rails
        assert "nonexistent" not in rails

    def test_set_powers_and_total(self):
        rails = RailSet()
        rails.set_powers({"core": 3.0, "ddr_mem": 0.4}, now_s=0.0)
        assert rails.total_w() == pytest.approx(3.4)

    def test_measure_all_returns_every_rail(self):
        rails = RailSet()
        measured = rails.measure_all_mw()
        assert set(measured) == set(RAIL_NAMES)

    def test_empty_rail_set_rejected(self):
        with pytest.raises(ValueError):
            RailSet([])
