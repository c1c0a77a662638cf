"""Power rails.

§III: the U740 exposes seven separated power rails (core complex, IOs,
PLLs, DDR subsystem, PCIe, ...) and the HiFive Unmatched adds shunt
resistors in series with each rail and with the on-board memory.  Table VI
reports nine lines; :data:`RAIL_NAMES` reproduces them in the paper's
order.  The rails are the *measurement* layer — the power *model*
(:mod:`repro.power.model`) decides how many milliwatts each rail draws;
the rail object holds that draw and keeps its energy integral.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator

__all__ = ["PowerRail", "RailSet", "RAIL_NAMES"]

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


class PowerRail:
    """One supply rail: instantaneous power plus an energy integral."""

    __slots__ = ("name", "_power_w", "_energy_j", "_last_update_s")

    def __init__(self, name: str) -> None:
        self.name = name
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

    def set_powers(self, powers_w: Dict[str, float], now_s: float) -> None:
        """Update several rails at one timestamp."""
        rails = self._rails
        for name, power in powers_w.items():
            rails[name].set_power(power, now_s)

    def total_w(self) -> float:
        """True total board power, watts."""
        return sum([rail._power_w for rail in self._rails.values()])
