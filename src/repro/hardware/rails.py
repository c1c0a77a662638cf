"""Power rails and shunt-resistor current sensors.

§III: the U740 exposes seven separated power rails (core complex, IOs,
PLLs, DDR subsystem, PCIe, ...) and the HiFive Unmatched adds shunt
resistors in series with each rail and with the on-board memory.  Table VI
reports nine lines; :data:`RAIL_NAMES` reproduces them in the paper's
order.  The rails are the *measurement* layer — the power *model*
(:mod:`repro.power.model`) decides how many milliwatts each rail draws; the
rail object converts that into a shunt voltage and back like the real
acquisition chain, and keeps an energy integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator

__all__ = ["PowerRail", "ShuntSensor", "RailSet", "RAIL_NAMES"]

#: The nine measurement lines of Table VI, in row order.
RAIL_NAMES = (
    "core",      # U74-MC core complex supply
    "ddr_soc",   # DDR controller/PHY inside the SoC
    "io",        # SoC IO ring
    "pll",       # SoC PLLs
    "pcievp",    # PCIe rail (vp)
    "pcievph",   # PCIe rail (vph)
    "ddr_mem",   # on-board DDR4 modules
    "ddr_pll",   # DDR PLL
    "ddr_vpp",   # DDR VPP pump
)


@dataclass(frozen=True)
class ShuntSensor:
    """A shunt resistor + ADC pair on one rail.

    The acquisition chain measures the voltage drop across ``shunt_ohm``
    and multiplies by the rail voltage; quantisation is the ADC's LSB.
    """

    shunt_ohm: float = 0.01
    rail_voltage: float = 1.0
    adc_lsb_volt: float = 1e-5

    def measure(self, true_power_w: float) -> float:
        """Convert true rail power into the sensor's reported watts.

        The conversion goes power → current → shunt drop → quantised drop →
        reported power, so tiny powers quantise visibly just as they do on
        the real board (the ``pll`` rail reports 1 mW).
        """
        if true_power_w < 0:
            raise ValueError(f"negative power {true_power_w}")
        current_a = true_power_w / self.rail_voltage
        drop_v = current_a * self.shunt_ohm
        quantised_drop = round(drop_v / self.adc_lsb_volt) * self.adc_lsb_volt
        return (quantised_drop / self.shunt_ohm) * self.rail_voltage


class PowerRail:
    """One supply rail: instantaneous power plus an energy integral."""

    __slots__ = ("name", "sensor", "_power_w", "_energy_j", "_last_update_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.sensor = ShuntSensor()
        self._power_w = 0.0
        self._energy_j = 0.0
        self._last_update_s = 0.0

    @property
    def power_w(self) -> float:
        """Current true power on the rail, watts."""
        return self._power_w

    @property
    def energy_j(self) -> float:
        """Energy integrated over all ``set_power`` intervals, joules."""
        return self._energy_j

    def set_power(self, power_w: float, now_s: float) -> None:
        """Update the rail draw at simulated time ``now_s``.

        Energy is integrated assuming the previous power level held since
        the last update (zero-order hold), which matches how the 1 ms
        averaging windows of Fig. 3 are produced from raw samples.
        """
        if not power_w >= 0:  # also rejects NaN
            raise ValueError(f"negative power {power_w} on rail {self.name}")
        dt = now_s - self._last_update_s
        if not dt >= 0:  # also rejects a NaN time
            raise ValueError(
                f"time went backwards on rail {self.name}: {now_s}")
        self._energy_j += self._power_w * dt
        self._power_w = power_w
        self._last_update_s = now_s

    def measure_w(self) -> float:
        """Power as reported through the shunt/ADC chain."""
        return self.sensor.measure(self._power_w)

    def measure_mw(self) -> float:
        """Measured power in milliwatts (the unit of Table VI)."""
        return self.measure_w() * 1e3


class RailSet:
    """The full nine-line measurement harness of one board."""

    def __init__(self, names: Iterable[str] = RAIL_NAMES) -> None:
        self._rails: Dict[str, PowerRail] = {name: PowerRail(name) for name in names}
        if not self._rails:
            raise ValueError("rail set cannot be empty")

    def __getitem__(self, name: str) -> PowerRail:
        return self._rails[name]

    def __iter__(self) -> Iterator[PowerRail]:
        return iter(self._rails.values())

    def __contains__(self, name: str) -> bool:
        return name in self._rails

    @property
    def names(self) -> list[str]:
        """Rail names in declaration order."""
        return list(self._rails)

    def set_powers(self, powers_w: Dict[str, float], now_s: float) -> None:
        """Update several rails at one timestamp."""
        rails = self._rails
        for name, power in powers_w.items():
            rails[name].set_power(power, now_s)

    def total_w(self) -> float:
        """True total board power, watts."""
        return sum([rail._power_w for rail in self._rails.values()])

    def measure_all_mw(self) -> Dict[str, float]:
        """Per-rail measured power in mW — one Table VI column."""
        return {rail.name: rail.measure_mw() for rail in self}
