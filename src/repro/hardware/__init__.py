"""Hardware substrate: the simulated SiFive Freedom U740 node.

The paper's cluster is built from HiFive Unmatched boards carrying the
SiFive Freedom U740 SoC; this package models every hardware element the
paper's experiments touch:

* :mod:`repro.hardware.specs` — datasheet constants (clock, peaks, cache
  sizes) taken from the U74-MC core-complex manual figures the paper cites.
* :mod:`repro.hardware.cores` — the four U74 application cores plus the S7
  monitor core, with per-core performance counters.
* :mod:`repro.hardware.cache` — the shared L2 with its stream prefetcher.
* :mod:`repro.hardware.memory` — the DDR4-1866 subsystem (7760 MB/s peak).
* :mod:`repro.hardware.hpm` — the hardware performance-monitoring counters
  exposed through perf_events, including the "programmable counters are
  disabled until a U-Boot patch enables them" behaviour from §IV-B.
* :mod:`repro.hardware.rails` — the seven SoC power rails plus the two DDR
  module rails, each with its energy integral.
* :mod:`repro.hardware.sensors` — the three hwmon thermal sensors
  (SoC, motherboard, NVMe) with the sysfs paths of Table IV.
* :mod:`repro.hardware.nic` — the VSC8541 GbE interface (traffic
  counters) and the Mellanox ConnectX-4 FDR Infiniband HCA
  (recognised, ping-capable, RDMA-incapable).
* :mod:`repro.hardware.storage` — 1 TB NVMe system disk (whose hwmon0
  temperature the node feeds from its NVMe RC model).
* :mod:`repro.hardware.board` — the assembled HiFive Unmatched board.

The §VI PCIe accelerator expansion is not modelled: no experiment of the
paper runs one.
"""
