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

from typing import Dict, Iterable, Iterator, Optional

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

    __slots__ = ("name", "_power_w", "_energy_j", "_last_update_s", "_owner")

    def __init__(self, name: str, owner: Optional["RailSet"] = None) -> None:
        self.name = name
        self._power_w = 0.0
        self._energy_j = 0.0
        self._last_update_s = 0.0
        #: The set this rail is a line of; told of every update.
        self._owner = owner

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
        owner = self._owner
        if owner is not None:
            # The set's rails no longer all hold its last powers, and its
            # total is stale.
            owner._held = owner._total_w = None


class RailSet:
    """The full nine-line measurement harness of one board.

    The node hands over the same rail powers every tick until a
    transition changes them.  A repeated dict only integrates: while
    every rail holds the powers of the last call that set all of them,
    the rails share one timestamp, so one ``dt`` and one time check
    serve all nine ``energy += P·dt`` updates, which are the ones
    :meth:`PowerRail.set_power` would make.  Any per-rail update (a
    new or partial dict, or a direct ``set_power`` on a member rail)
    ends that state until the next full dict.
    """

    def __init__(self, names: Iterable[str] = RAIL_NAMES) -> None:
        self._rails: Dict[str, PowerRail] = {
            name: PowerRail(name, owner=self) for name in names}
        if not self._rails:
            raise ValueError("rail set cannot be empty")
        #: Copy of the powers every rail took at ``_held_s``, or ``None``
        #: while the rails do not share them.
        self._held: Optional[Dict[str, float]] = None
        self._held_s = 0.0
        #: ``total_w`` since the last power change; ``None`` until asked.
        self._total_w: Optional[float] = None

    def __getitem__(self, name: str) -> PowerRail:
        return self._rails[name]

    def __iter__(self) -> Iterator[PowerRail]:
        return iter(self._rails.values())

    def __contains__(self, name: str) -> bool:
        return name in self._rails

    def set_powers(self, powers_w: Dict[str, float], now_s: float) -> None:
        """Update several rails at one timestamp."""
        if powers_w == self._held:
            # Every rail already draws these powers and was last updated
            # at _held_s: integrate only.  Equal floats are the same bits,
            # except that 0.0 == -0.0; a zero keeps the sign it was set
            # with, and either adds nothing to the energy.
            dt = now_s - self._held_s
            if not dt >= 0:  # also rejects a NaN time
                raise ValueError(f"time went backwards on the rails: {now_s}")
            for rail in self._rails.values():
                rail._energy_j += rail._power_w * dt
                rail._last_update_s = now_s
            self._held_s = now_s
            return
        rails = self._rails
        for name, power in powers_w.items():
            rails[name].set_power(power, now_s)
        if len(powers_w) == len(rails):
            self._held = dict(powers_w)
            self._held_s = now_s

    def total_w(self) -> float:
        """True total board power, watts: the rails summed in order once
        per power change."""
        total = self._total_w
        if total is None:
            total = self._total_w = sum(
                [rail._power_w for rail in self._rails.values()])
        return total
