"""Tests for power rails."""

import pytest

from repro.hardware.rails import RAIL_NAMES, PowerRail, RailSet


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


class TestRailSet:
    def test_has_the_nine_table_vi_lines(self):
        rails = RailSet()
        assert [rail.name for rail in rails] == list(RAIL_NAMES)
        assert len(RAIL_NAMES) == 9

    def test_contains(self):
        rails = RailSet()
        assert "core" in rails and "pcievph" in rails
        assert "nonexistent" not in rails

    def test_set_powers_and_total(self):
        rails = RailSet()
        rails.set_powers({"core": 3.0, "ddr_mem": 0.4}, now_s=0.0)
        assert rails.total_w() == pytest.approx(3.4)

    def test_empty_rail_set_rejected(self):
        with pytest.raises(ValueError):
            RailSet([])


def test_hold_needs_a_power_for_every_rail():
    rails = RailSet()
    with pytest.raises(ValueError, match="every rail"):
        rails.hold({"core": 1.0}, [1.0, 2.0])
    assert [rail.power_w for rail in rails] == [0.0] * len(RAIL_NAMES)
