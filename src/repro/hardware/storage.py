"""Node-local storage: the 1 TB NVMe system disk.

§III: the M.2 slot carries a 1 TB NVMe 2280 SSD holding the operating
system.  The model tracks I/O counters (stats_pub's
``dsk_total.read``/``dsk_total.writ``) and the NVMe temperature the board
copies into the hwmon tree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NVMeDrive"]


@dataclass
class NVMeDrive:
    """The 1 TB NVMe 2280 system disk."""

    capacity_bytes: int = 10 ** 12
    read_bandwidth_bytes_per_s: float = 1.6e9
    write_bandwidth_bytes_per_s: float = 1.1e9
    #: Cumulative transfer counters for stats_pub.
    bytes_read: int = 0
    bytes_written: int = 0
    #: Device temperature.  On a node in an enclosure, each tick sets it to
    #: the NVMe RC temperature of ``NodeThermalModel``, and
    #: ``HiFiveUnmatched.sync_nvme_temperature`` copies it into hwmon0.
    #: Without a thermal attachment it keeps this 30 °C default.
    temperature_c: float = 30.0

    def read(self, n_bytes: int) -> float:
        """Account a read; returns the transfer time in seconds."""
        if n_bytes < 0:
            raise ValueError("negative read size")
        self.bytes_read += n_bytes
        return n_bytes / self.read_bandwidth_bytes_per_s

    def write(self, n_bytes: int) -> float:
        """Account a write; returns the transfer time in seconds."""
        if n_bytes < 0:
            raise ValueError("negative write size")
        self.bytes_written += n_bytes
        return n_bytes / self.write_bandwidth_bytes_per_s
