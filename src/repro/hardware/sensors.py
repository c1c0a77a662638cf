"""Thermal sensors and the hwmon sysfs layout of Table IV.

The HiFive Unmatched exposes three temperature sensors through hwmon:

=========  ====================================
sensor     sysfs file (Table IV)
=========  ====================================
nvme_temp  /sys/class/hwmon/hwmon0/temp1_input
mb_temp    /sys/class/hwmon/hwmon1/temp1_input
cpu_temp   /sys/class/hwmon/hwmon1/temp2_input
=========  ====================================

stats_pub reads these files at 0.2 Hz; the thermal model writes them:
``cpu_temp`` every simulated second, ``mb_temp`` and ``nvme_temp`` when
the node settles (``ComputeNode.settle``).  The hwmon convention reports
millidegrees Celsius as integer strings, which is what
:meth:`HwmonTree.read` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["ThermalSensor", "HwmonTree", "HWMON_PATHS", "SensorReadError"]


class SensorReadError(OSError):
    """A hwmon read failed (the kernel's ``EIO`` on a wedged sensor bus).

    Real RISC-V testbeds see exactly this: I2C sensors drop off the bus
    under thermal stress and every read of the sysfs file errors until the
    device recovers.  Consumers (stats_pub) must treat it as a per-sensor
    outage, not a fatal daemon error.
    """

#: The Table IV sensor → sysfs-path mapping.
HWMON_PATHS = {
    "nvme_temp": "/sys/class/hwmon/hwmon0/temp1_input",
    "mb_temp": "/sys/class/hwmon/hwmon1/temp1_input",
    "cpu_temp": "/sys/class/hwmon/hwmon1/temp2_input",
}


@dataclass
class ThermalSensor:
    """One temperature measurement point.

    The over-temperature trip is the watchdog's decision
    (:class:`repro.thermal.runaway.ThermalWatchdog`), not the sensor's.
    """

    name: str
    temperature_c: float = 25.0
    #: Fault-injection state: ``None`` (healthy), ``"dropout"`` (reads
    #: raise :class:`SensorReadError`) or ``"stuck"`` (the reading froze
    #: at the value it had when the fault landed; updates are ignored).
    #: The owning node settles before a fault lands or clears, so that
    #: value is the node's last tick's.
    failure_mode: Optional[str] = None

    def set(self, temperature_c: float) -> None:
        """Update the sensed temperature (ignored while stuck-at)."""
        if self.failure_mode == "stuck":
            return
        self.temperature_c = float(temperature_c)

    @property
    def healthy(self) -> bool:
        """Whether the sensor currently has no injected fault."""
        return self.failure_mode is None

    def millidegrees(self) -> int:
        """hwmon integer reading (m°C); raises while dropped out."""
        if self.failure_mode == "dropout":
            raise SensorReadError(f"sensor {self.name!r} dropped off the bus")
        return int(round(self.temperature_c * 1000.0))

    # -- fault injection ----------------------------------------------------
    def fail_dropout(self) -> None:
        """Inject a dropout: every read errors until :meth:`repair`."""
        self.failure_mode = "dropout"

    def fail_stuck(self) -> None:
        """Inject a stuck-at fault: the reading freezes at its current value."""
        self.failure_mode = "stuck"

    def repair(self) -> None:
        """Clear any injected fault; the next write updates normally again."""
        self.failure_mode = None


class HwmonTree:
    """The node's hwmon sysfs subtree.

    Maps the Table IV paths onto the three sensors and renders readings the
    way the kernel does: ASCII integers in millidegrees.
    """

    def __init__(self) -> None:
        self.sensors: Dict[str, ThermalSensor] = {
            name: ThermalSensor(name=name) for name in HWMON_PATHS
        }

    def path_of(self, sensor_name: str) -> str:
        """sysfs path for ``sensor_name`` (KeyError on unknown sensors)."""
        return HWMON_PATHS[sensor_name]

    def read(self, path: str) -> str:
        """Read a sysfs temperature file; returns the kernel's string form."""
        for name, sensor_path in HWMON_PATHS.items():
            if sensor_path == path:
                return f"{self.sensors[name].millidegrees()}\n"
        raise FileNotFoundError(path)

    def read_celsius(self, sensor_name: str) -> float:
        """Convenience float read in °C for plugins and tests."""
        return self.sensors[sensor_name].temperature_c

    def set_celsius(self, sensor_name: str, temperature_c: float) -> None:
        """Thermal-model hook: update one sensor."""
        self.sensors[sensor_name].set(temperature_c)
