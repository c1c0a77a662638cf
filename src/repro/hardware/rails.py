"""Power rails.

§III: the U740 exposes seven separated power rails (core complex, IOs,
PLLs, DDR subsystem, PCIe, ...) and the HiFive Unmatched adds shunt
resistors in series with each rail and with the on-board memory.  Table VI
reports nine lines; :data:`RAIL_NAMES` reproduces them in the paper's
order.  The rails are the *measurement* layer — the power *model*
(:mod:`repro.power.model`) decides how many milliwatts each rail draws;
the rail object holds that draw and keeps its energy integral.

A rail's power changes only in a node transition, which sets all nine
through :meth:`RailSet.set_powers`.  A tick only integrates: the node
hands its per-second ticks over in runs, when someone asks for the
energy, through :meth:`RailSet.hold`, which adds each rail's held
``P·dt`` once per tick, in order.  The board total, which heats the SoC
every second, is summed once per power change.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence

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
    """One supply rail: instantaneous power plus an energy integral.

    The rail is a record; its :class:`RailSet` updates it.
    """

    __slots__ = ("name", "_power_w", "_energy_j")

    def __init__(self, name: str) -> None:
        self.name = name
        self._power_w = 0.0
        self._energy_j = 0.0

    @property
    def power_w(self) -> float:
        """Current true power on the rail, watts."""
        return self._power_w

    @property
    def energy_j(self) -> float:
        """Energy integrated over every interval the set has held, joules."""
        return self._energy_j


class RailSet:
    """The full nine-line measurement harness of one board.

    The rails share one clock, the time of the set's last update.  Energy
    is integrated assuming each power held since then (zero-order hold),
    which matches how the 1 ms averaging windows of Fig. 3 are produced
    from raw samples.
    """

    def __init__(self, names: Iterable[str] = RAIL_NAMES) -> None:
        self._rails: Dict[str, PowerRail] = {
            name: PowerRail(name) for name in names}
        if not self._rails:
            raise ValueError("rail set cannot be empty")
        #: The rails' clock: the time of the last update, seconds.
        self._now_s = 0.0
        #: ``total_w``, summed at each power change.
        self._total_w = 0.0

    def __getitem__(self, name: str) -> PowerRail:
        return self._rails[name]

    def __iter__(self) -> Iterator[PowerRail]:
        return iter(self._rails.values())

    def __contains__(self, name: str) -> bool:
        return name in self._rails

    def set_powers(self, powers_w: Dict[str, float], now_s: float) -> None:
        """Hold the present powers up to ``now_s``, then change the named
        rails to ``powers_w``."""
        updates = [(self._rails[name], power)
                   for name, power in powers_w.items()]
        for rail, power in updates:
            if not power >= 0:  # also rejects NaN
                raise ValueError(f"negative power {power} on rail {rail.name}")
        self.hold([now_s])
        for rail, power in updates:
            rail._power_w = power
        self._total_w = sum([rail._power_w for rail in self._rails.values()])

    def hold(self, times: Sequence[float]) -> None:
        """Integrate the held powers up to each of ``times`` in turn.

        Each rail adds ``P·dt`` once per time, in order, with ``dt`` the
        step from the previous time (the rails' clock, for the first).
        A step back in time, or a NaN, raises before any energy moves.
        """
        steps = []
        last = self._now_s
        for now_s in times:
            step = now_s - last
            if not step >= 0:  # also rejects a NaN time
                raise ValueError(f"time went backwards on the rails: {now_s}")
            steps.append(step)
            last = now_s
        for rail in self._rails.values():
            power = rail._power_w
            if power:  # a zero power adds nothing, whatever its sign
                energy = rail._energy_j
                for step in steps:
                    energy += power * step
                rail._energy_j = energy
        self._now_s = times[-1]

    def total_w(self) -> float:
        """True total board power, watts."""
        return self._total_w
