"""The assembled HiFive Unmatched board.

One board = one compute node's hardware: the U740 core complex, L2, DDR4,
NVMe storage, GbE, optional Infiniband HCA, the nine-rail power
measurement harness, and the three hwmon thermal sensors.  The board is
deliberately free of behaviour — it is the *composition* the node
lifecycle (:mod:`repro.cluster.node`), power model (:mod:`repro.power`)
and thermal model (:mod:`repro.thermal`) animate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.hardware.cache import L2Cache
from repro.hardware.cores import CoreComplex
from repro.hardware.hpm import PerfEventsInterface
from repro.hardware.memory import DDR4Subsystem
from repro.hardware.nic import GigabitEthernet, InfinibandHCA
from repro.hardware.rails import RailSet
from repro.hardware.sensors import HwmonTree
from repro.hardware.specs import SoCSpec, U740_SPEC
from repro.hardware.storage import NVMeDrive

__all__ = ["HiFiveUnmatched"]


class HiFiveUnmatched:
    """A HiFive Unmatched board in Mini-ITX form factor (170 mm × 170 mm).

    Parameters
    ----------
    with_infiniband:
        Two of the eight Monte Cimone nodes carry a ConnectX-4 FDR HCA in
        the PCIe slot (§III); pass True for those.
    soc_spec:
        The SoC datasheet; defaults to the U740.
    """

    def __init__(self, with_infiniband: bool = False,
                 soc_spec: SoCSpec = U740_SPEC) -> None:
        self.soc_spec = soc_spec
        self.cores = CoreComplex(soc=soc_spec)
        self.l2 = L2Cache(spec=soc_spec.l2)
        self.memory = DDR4Subsystem(spec=soc_spec.memory)
        self.nvme = NVMeDrive()
        self.ethernet = GigabitEthernet()
        self.infiniband: Optional[InfinibandHCA] = (
            InfinibandHCA(installed=True) if with_infiniband else None)
        self.rails = RailSet()
        self.hwmon = HwmonTree()
        #: hwmon0, which :meth:`sync_nvme_temperature` writes every tick.
        self._nvme_sensor = self.hwmon.sensors["nvme_temp"]
        self.perf = PerfEventsInterface(core.hpm for core in self.cores)

    @property
    def n_cores(self) -> int:
        """Application-core count (the S7 monitor core is not schedulable)."""
        return len(self.cores)

    @property
    def peak_flops(self) -> float:
        """Board peak double-precision FLOP/s (4.0 GFLOP/s on the U740)."""
        return self.soc_spec.peak_flops

    def enable_hpm_counters(self) -> None:
        """Apply the authors' U-Boot patch: unlock programmable counters."""
        for core in self.cores:
            core.hpm.enable_programmable()

    def sync_nvme_temperature(self) -> None:
        """Propagate the NVMe device temperature into the hwmon tree."""
        self._nvme_sensor.set(self.nvme.temperature_c)

    def __repr__(self) -> str:
        ib = "+IB" if self.infiniband is not None else ""
        return f"HiFiveUnmatched({self.soc_spec.name}{ib})"
