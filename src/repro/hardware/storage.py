"""Node-local storage: the 1 TB NVMe system disk and the UEFI micro-SD.

§III: the M.2 slot carries a 1 TB NVMe 2280 SSD holding the operating
system; a micro-SD card provides the UEFI boot path.  The models track I/O
counters (stats_pub's ``dsk_total.read``/``dsk_total.writ``) and the NVMe
temperature the board copies into the hwmon tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NVMeDrive", "MicroSDCard"]


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


@dataclass
class MicroSDCard:
    """The micro-SD card holding the UEFI boot firmware.

    Only the boot path touches it: the card is read once per boot at a very
    modest bandwidth, which is part of why the bootloader region (R2 in
    Fig. 4) lasts as long as it does.
    """

    capacity_bytes: int = 32 * 1024 ** 3
    read_bandwidth_bytes_per_s: float = 20e6
    firmware_bytes: int = 24 * 1024 ** 2

    def firmware_load_time(self) -> float:
        """Seconds spent streaming the boot firmware off the card."""
        return self.firmware_bytes / self.read_bandwidth_bytes_per_s
