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

Only the SoC reading is needed every second (the watchdog and the DTM
governor read it), so :meth:`NodeThermalModel.step` advances the SoC
alone.  The motherboard and NVMe RCs depend on the SoC's inputs but not
on its temperature; the node replays their steps in runs through
:meth:`NodeThermalModel.settle` before anything reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from repro.hardware.sensors import HwmonTree, ThermalSensor
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

    def __post_init__(self) -> None:
        if not self.resistance_k_per_w > 0:  # also rejects NaN
            raise ValueError("thermal resistance must be positive")
        if not self.capacitance_j_per_k > 0:
            raise ValueError("thermal capacitance must be positive")

    def steady_state_c(self, power_w: float, ambient_c: float) -> float:
        """Temperature this RC settles at under constant conditions."""
        return ambient_c + power_w * self.resistance_k_per_w

    def decay(self, dt_s: float) -> float:
        """The factor ``exp(-dt/τ)`` of a step of ``dt_s``, τ = R·C."""
        if not dt_s >= 0:  # also rejects NaN
            raise ValueError(f"negative time step {dt_s}")
        return math.exp(
            -dt_s / (self.resistance_k_per_w * self.capacitance_j_per_k))

    def step(self, dt_s: float, power_w: float, ambient_c: float) -> float:
        """Advance the RC by ``dt_s`` seconds under constant power.

        Uses the exact exponential solution, so any step size is stable.
        Returns the new temperature.
        """
        alpha = self.decay(dt_s)
        # steady_state_c, inline.
        target = ambient_c + power_w * self.resistance_k_per_w
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
        #: The hwmon1 sensors the model writes, held so the per-second
        #: step does no by-name lookup.
        self._cpu_sensor: ThermalSensor | None = None
        self._mb_sensor: ThermalSensor | None = None
        if hwmon is not None:
            self._cpu_sensor = hwmon.sensors["cpu_temp"]
            self._mb_sensor = hwmon.sensors["mb_temp"]
        #: The slot's intake temperature; changes with the enclosure only.
        self._ambient_c = ambient = enclosure.local_ambient(slot)
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
        """Apply a mechanical change (the §V-C mitigation) in place.

        Steps already taken and not yet settled would be replayed with
        the new resistance and ambient, so the caller settles first
        (``ComputeNode.set_enclosure``).
        """
        self.enclosure = enclosure
        r = enclosure.thermal_resistance(self.slot)
        self._ambient_c = enclosure.local_ambient(self.slot)
        self.soc.resistance_k_per_w = r
        self.motherboard.resistance_k_per_w = r * self.MB_RESISTANCE_FACTOR

    def step(self, dt_s: float, board_power_w: float) -> None:
        """Advance the SoC by ``dt_s`` under ``board_power_w``.

        The SoC reading goes to hwmon here.  The motherboard and NVMe
        steps of the same seconds are owed to :meth:`settle`.
        """
        soc = self.soc
        soc.step(dt_s, board_power_w, self._ambient_c)
        if self._cpu_sensor is not None:
            self._cpu_sensor.set(soc.temperature_c)

    def settle(self, dt_s: float, ticks: int, board_power_w: float) -> None:
        """Take the motherboard and NVMe through ``ticks`` steps of ``dt_s``.

        Each step is the one :meth:`ThermalRC.step` makes: the motherboard
        follows ``MB_HEAT_FRACTION`` of the board power, and the NVMe its
        own dissipation with an intake halfway between the slot ambient
        and the motherboard.  The motherboard reading goes to hwmon; the
        NVMe reading reaches hwmon0 through the drive, which the node
        updates and the board syncs
        (``HiFiveUnmatched.sync_nvme_temperature``).
        """
        ambient = self._ambient_c
        motherboard, nvme = self.motherboard, self.nvme
        mb_alpha = motherboard.decay(dt_s)
        nvme_alpha = nvme.decay(dt_s)
        mb_target = (ambient + board_power_w * self.MB_HEAT_FRACTION
                     * motherboard.resistance_k_per_w)
        nvme_rise = self.NVME_POWER_W * nvme.resistance_k_per_w
        mb_c, nvme_c = motherboard.temperature_c, nvme.temperature_c
        for _ in repeat(None, ticks):
            mb_c = mb_target + (mb_c - mb_target) * mb_alpha
            nvme_target = 0.5 * (ambient + mb_c) + nvme_rise
            nvme_c = nvme_target + (nvme_c - nvme_target) * nvme_alpha
        motherboard.temperature_c, nvme.temperature_c = mb_c, nvme_c
        if self._mb_sensor is not None:
            self._mb_sensor.set(mb_c)

    def steady_state_soc_c(self, board_power_w: float) -> float:
        """SoC temperature this slot settles at under constant power."""
        return self.soc.steady_state_c(board_power_w, self._ambient_c)
