"""First-order RC thermal models for the node's three sensors.

Each sensed component (SoC junction, motherboard, NVMe) is a lumped thermal
capacitance coupled to its local ambient through the slot's thermal
resistance.  The classic first-order response

    ``C dT/dt = P - (T - T_ambient) / R``

is integrated with an exact exponential step, so a step of any length is
stable.  The cluster simulation advances thermal state once per simulated
second: a running job's one-second execution slices, and the thermal
watchdog's ``THERMAL_SAMPLE_S`` = 1 s sync of every other node
(``repro.cluster.cluster``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.sensors import HwmonTree
from repro.thermal.enclosure import Enclosure

__all__ = ["ThermalRC", "NodeThermalModel"]


@dataclass
class ThermalRC:
    """One lumped RC node.

    Attributes
    ----------
    resistance_k_per_w:
        Thermal resistance to local ambient.
    capacitance_j_per_k:
        Thermal capacitance (sets the time constant R·C).
    temperature_c:
        Current temperature.
    """

    resistance_k_per_w: float
    capacitance_j_per_k: float
    temperature_c: float = 25.0
    #: (dt_s, time constant, decay factor) of the last :meth:`step`; not
    #: a field, so equality and ``repr`` ignore it.
    _decay_memo = None

    def __post_init__(self) -> None:
        if not self.resistance_k_per_w > 0:  # also rejects NaN
            raise ValueError("thermal resistance must be positive")
        if not self.capacitance_j_per_k > 0:
            raise ValueError("thermal capacitance must be positive")

    def steady_state_c(self, power_w: float, ambient_c: float) -> float:
        """Temperature this RC settles at under constant conditions."""
        return ambient_c + power_w * self.resistance_k_per_w

    def step(self, dt_s: float, power_w: float, ambient_c: float) -> float:
        """Advance the RC by ``dt_s`` seconds under constant power.

        Uses the exact exponential solution, so any step size is stable.
        Returns the new temperature.  The decay factor ``exp(-dt/τ)`` of
        the last step is kept, keyed on ``dt_s`` and τ = R·C; τ is
        recomputed every call, so a change of R (``set_enclosure``)
        misses the memo.
        """
        r = self.resistance_k_per_w
        tau = r * self.capacitance_j_per_k
        memo = self._decay_memo
        if memo is not None and memo[0] == dt_s and memo[1] == tau:
            alpha = memo[2]
        else:
            # A hit matches a step already checked here, and NaN matches
            # nothing, so checking on a miss checks every step.
            if not dt_s >= 0:  # also rejects NaN
                raise ValueError(f"negative time step {dt_s}")
            alpha = math.exp(-dt_s / tau)
            self._decay_memo = (dt_s, tau, alpha)
        # steady_state_c, inline.
        target = ambient_c + power_w * r
        self.temperature_c = target + (self.temperature_c - target) * alpha
        return self.temperature_c


class NodeThermalModel:
    """The three-sensor thermal state of one node in one enclosure slot.

    The SoC sensor follows the full board power through the slot's thermal
    resistance; the motherboard sensor follows a damped version of the same
    heat with a longer time constant; the NVMe follows its own small
    dissipation plus coupling to the board.
    """

    #: Thermal capacitances; time constants are R·C, so with the original
    #: centre-slot R ≈ 14 K/W the SoC constant is ~7 min — matching the
    #: slow climb of Fig. 6.
    SOC_CAPACITANCE = 30.0
    MB_CAPACITANCE = 260.0
    NVME_CAPACITANCE = 90.0
    #: The motherboard sits closer to ambient: it sees ~45% of board heat.
    MB_HEAT_FRACTION = 0.45
    MB_RESISTANCE_FACTOR = 0.6
    NVME_POWER_W = 0.9
    NVME_RESISTANCE = 6.0

    def __init__(self, enclosure: Enclosure, slot: int,
                 hwmon: HwmonTree | None = None) -> None:
        self.enclosure = enclosure
        self.slot = slot
        self.hwmon = hwmon
        ambient = enclosure.local_ambient(slot)
        r = enclosure.thermal_resistance(slot)
        self.soc = ThermalRC(resistance_k_per_w=r,
                             capacitance_j_per_k=self.SOC_CAPACITANCE,
                             temperature_c=ambient)
        self.motherboard = ThermalRC(
            resistance_k_per_w=r * self.MB_RESISTANCE_FACTOR,
            capacitance_j_per_k=self.MB_CAPACITANCE,
            temperature_c=ambient)
        self.nvme = ThermalRC(resistance_k_per_w=self.NVME_RESISTANCE,
                              capacitance_j_per_k=self.NVME_CAPACITANCE,
                              temperature_c=ambient)

    def set_enclosure(self, enclosure: Enclosure) -> None:
        """Apply a mechanical change (the §V-C mitigation) in place."""
        self.enclosure = enclosure
        r = enclosure.thermal_resistance(self.slot)
        self.soc.resistance_k_per_w = r
        self.motherboard.resistance_k_per_w = r * self.MB_RESISTANCE_FACTOR

    def step(self, dt_s: float, board_power_w: float) -> None:
        """Advance all three sensors by ``dt_s`` under ``board_power_w``."""
        ambient = self.enclosure.local_ambient(self.slot)
        self.soc.step(dt_s, board_power_w, ambient)
        self.motherboard.step(dt_s, board_power_w * self.MB_HEAT_FRACTION, ambient)
        nvme_ambient = 0.5 * (ambient + self.motherboard.temperature_c)
        self.nvme.step(dt_s, self.NVME_POWER_W, nvme_ambient)
        if self.hwmon is not None:
            self.hwmon.set_celsius("cpu_temp", self.soc.temperature_c)
            self.hwmon.set_celsius("mb_temp", self.motherboard.temperature_c)
            self.hwmon.set_celsius("nvme_temp", self.nvme.temperature_c)

    def steady_state_soc_c(self, board_power_w: float) -> float:
        """SoC temperature this slot settles at under constant power."""
        return self.soc.steady_state_c(board_power_w,
                                       self.enclosure.local_ambient(self.slot))
