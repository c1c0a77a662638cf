"""Tests for power rails."""

import pytest

from repro.hardware.rails import RAIL_NAMES, RailSet

NAN = float("nan")


def rail_state(rails):
    """Every rail's power and energy, and the rails' total, as hex."""
    return ([(rail.power_w.hex(), rail.energy_j.hex()) for rail in rails],
            rails.total_w().hex())


def energy_after(power_w, times):
    """``energy += P·dt`` from time zero over each of ``times``."""
    energy, last = 0.0, 0.0
    for now_s in times:
        energy += power_w * (now_s - last)
        last = now_s
    return energy


def powered(now_s=0.0):
    """A set whose rails draw 0.1, 0.2, ... 0.9 W from ``now_s``."""
    rails = RailSet()
    rails.set_powers({name: 0.1 * (i + 1)
                      for i, name in enumerate(RAIL_NAMES)}, now_s)
    return rails


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

    def test_energy_integrates_zero_order_hold(self):
        rails = RailSet()
        rails.set_powers({"core": 2.0}, now_s=0.0)
        rails.set_powers({"core": 4.0}, now_s=10.0)   # 2 W held for 10 s
        rails.set_powers({"core": 0.0}, now_s=15.0)   # 4 W held for 5 s
        assert rails["core"].energy_j == pytest.approx(2.0 * 10 + 4.0 * 5)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            RailSet().set_powers({"core": -1.0}, now_s=0.0)

    @pytest.mark.parametrize("power_w,now_s", [(NAN, 10.0), (-1.0, 10.0),
                                               (3.0, NAN), (3.0, 4.0)])
    def test_a_rejected_update_moves_no_energy(self, power_w, now_s):
        rails = powered(5.0)
        before = rail_state(rails)
        # A bad power on the last rail is found before the first moves.
        with pytest.raises(ValueError):
            rails.set_powers({"core": 1.0, "ddr_vpp": power_w}, now_s)
        assert rail_state(rails) == before
        rails.set_powers({}, 15.0)
        assert rails["core"].energy_j == 0.1 * 10.0


class TestHold:
    def test_adds_p_dt_once_per_time_in_order(self):
        rails = powered()
        times = [0.3, 1.3, 2.3, 2.3, 2.75]
        rails.hold(times)
        for i, rail in enumerate(rails):
            expected = energy_after(0.1 * (i + 1), times)
            assert rail.energy_j.hex() == expected.hex(), rail.name
        # The rails' clock is the last time.
        rails.set_powers({}, 3.75)
        assert rails["core"].energy_j == energy_after(0.1, times + [3.75])

    @pytest.mark.parametrize("times", [[9.5], [11.0, 10.5], [NAN],
                                       [11.0, NAN], [11.0, 12.0, NAN],
                                       [11.0, 12.0, 11.5]])
    def test_time_going_backwards_moves_no_energy(self, times):
        rails = powered()
        rails.hold([10.0])
        before = rail_state(rails)
        with pytest.raises(ValueError, match="backwards"):
            rails.hold(times)
        assert rail_state(rails) == before
        # The set still integrates from where it stood.
        rails.hold([12.0])
        assert rails["core"].energy_j == energy_after(0.1, [10.0, 12.0])

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_zero_power_adds_nothing(self, zero):
        rails = RailSet()
        rails.set_powers({"core": 2.0, "io": zero}, 0.0)
        rails.set_powers({"core": zero}, 10.0)
        rails.hold([11.0, 12.5, 20.0])
        assert rails["core"].energy_j.hex() == (20.0).hex()
        assert rails["io"].energy_j.hex() == (0.0).hex()
        assert rails.total_w() == 0.0
