"""The paper's reported numbers, verbatim.

Each constant cites the paper location it comes from.  These are values
only: the bound each one is checked to, and the driver that measures it,
are declared once in :data:`repro.analysis.validate.CLAIMS`, which
``repro validate``, the benchmark harness and the tier-1 tests all read.
"""

from __future__ import annotations

__all__ = [
    "TABLE_I_STACK",
    "HPL_SINGLE_NODE",
    "HPL_FULL_MACHINE",
    "COMPARISON_FRACTIONS",
    "TABLE_V_DDR_MB_S",
    "TABLE_V_L2_MB_S",
    "QE_LAX",
    "POWER_SUMMARY",
    "BOOT_DECOMPOSITION",
    "THERMAL",
    "INFINIBAND",
]

#: Table I: the user-facing Spack stack.
TABLE_I_STACK = {
    "gcc": "10.3.0",
    "openmpi": "4.1.1",
    "openblas": "0.3.18",
    "fftw": "3.3.10",
    "netlib-lapack": "3.9.1",
    "netlib-scalapack": "2.1.0",
    "hpl": "2.3",
    "stream": "5.10",
    "quantum-espresso": "6.8",
}

#: §V-A single-node HPL: N=40704, NB=192.
HPL_SINGLE_NODE = {
    "gflops": 1.86, "gflops_std": 0.04,
    "fraction_of_peak": 0.465,
    "runtime_s": 24105.0, "runtime_std_s": 587.0,
    "n": 40704, "nb": 192,
}

#: §V-A full-machine HPL over 1 GbE.
HPL_FULL_MACHINE = {
    "gflops": 12.65, "gflops_std": 0.52,
    "fraction_of_peak": 0.395,
    "fraction_of_linear": 0.85,
    "runtime_s": 3548.0, "runtime_std_s": 136.0,
    "n_nodes": 8,
}

#: §V-A efficiency comparison under identical upstream-stack conditions.
COMPARISON_FRACTIONS = {
    "montecimone": {"hpl": 0.465, "stream": 0.155},
    "marconi100power9": {"hpl": 0.597, "stream": 0.482},
    "armidathunderx2": {"hpl": 0.6579, "stream": 0.6321},
}

#: Table V, DDR-resident (1945.5 MiB working set), MB/s.
TABLE_V_DDR_MB_S = {"copy": 1206.0, "scale": 1025.0, "add": 1124.0,
                    "triad": 1122.0}
#: Table V, L2-resident (1.1 MiB working set), MB/s.
TABLE_V_L2_MB_S = {"copy": 7079.0, "scale": 3558.0, "add": 4380.0,
                   "triad": 4365.0}
#: The STREAM peak both regimes are measured against (§V-A).
STREAM_PEAK_MB_S = 7760.0

#: §V-A QuantumESPRESSO LAX on a 512² matrix.
QE_LAX = {"gflops": 1.44, "gflops_std": 0.05, "fraction": 0.36,
          "runtime_s": 37.40, "runtime_std_s": 0.14, "n": 512}

#: §I/§V-B headline power numbers (watts and share of total).
POWER_SUMMARY = {
    "idle_w": 4.810,
    "max_w": 5.935,
    "idle_core_share": 0.64,
    "idle_ddr_share": 0.13,   # ddr_soc+ddr_mem+ddr_pll+ddr_vpp ≈ 13%
    "idle_pci_share": 0.23,
    "hpl_core_share": 0.69,
}

#: Fig. 4 / §V-B boot decomposition of core power.
BOOT_DECOMPOSITION = {
    "r1_core_w": 0.984,            # leakage
    "r2_core_w": 2.561,
    "r3_core_w": 3.082,
    "leakage_fraction": 0.32,
    "dynamic_clock_w": 1.577,
    "dynamic_clock_fraction": 0.51,
    "os_w": 0.514,
    "os_fraction": 0.17,
    "ddr_mem_r1_w": 0.275,
    "ddr_mem_leakage_fraction": 0.68,
}

#: §V-C thermal narrative.
THERMAL = {
    "trip_celsius": 107.0,
    "runaway_node": "mc-node-7",
    "pre_mitigation_hot_c": 71.0,
    "post_mitigation_hot_c": 39.0,
    "job_outcome": "NF",      # node 7 "stopped executing": SLURM NODE_FAIL
    "retry_outcome": "CD",    # the mitigated rerun completed
}

#: §III Infiniband bring-up: the HCA is recognised and ibping works board
#: to board and board to server, but RDMA is not functional yet.
INFINIBAND = {
    "device_recognised": True,
    "driver_loaded": True,
    "ofed_mounted": True,
    "board_to_board_ping": True,
    "board_to_server_ping": True,
    "rdma_functional": False,
}
