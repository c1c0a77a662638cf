"""Datasheet constants for the machines in the paper.

Every number here is taken from the paper or the documents it cites (the
SiFive U74-MC core-complex manual for Monte Cimone, the published Marconi100
and Armida system descriptions for the two comparison nodes).  They form the
calibration anchors of all performance, power and thermal models: efficiency
numbers in the evaluation are *ratios against these peaks*, so getting the
peaks right is what makes the reproduced ratios meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "SoCSpec",
    "CacheSpec",
    "MemorySpec",
    "NodeSpec",
    "U740_SPEC",
    "L2_SPEC",
    "DDR_SPEC",
    "MONTE_CIMONE_NODE",
    "MARCONI100_NODE",
    "ARMIDA_NODE",
    "GIB",
    "MIB",
]

GIB = 1024 ** 3
MIB = 1024 ** 2


@dataclass(frozen=True)
class CacheSpec:
    """Size and bandwidth of a cache level."""

    size_bytes: int
    bandwidth_bytes_per_s: float
    prefetch_streams: int = 0


@dataclass(frozen=True)
class MemorySpec:
    """Main-memory subsystem description."""

    capacity_bytes: int
    peak_bandwidth_bytes_per_s: float


@dataclass(frozen=True)
class SoCSpec:
    """An application SoC as seen by the performance/power models."""

    name: str
    isa: str
    n_cores: int
    clock_hz: float
    flops_per_cycle_per_core: float
    l2: CacheSpec
    memory: MemorySpec

    @property
    def peak_flops_per_core(self) -> float:
        """Peak double-precision FLOP/s of one core."""
        return self.clock_hz * self.flops_per_cycle_per_core

    @property
    def peak_flops(self) -> float:
        """Peak double-precision FLOP/s of the whole SoC."""
        return self.peak_flops_per_core * self.n_cores


@dataclass(frozen=True)
class NodeSpec:
    """A compute node: SoC(s) + memory + per-benchmark attained fractions.

    ``hpl_fraction`` and ``stream_fraction`` are the *paper-reported*
    efficiencies attained by the upstream, unoptimised software stack — they
    calibrate each machine's software-stack maturity in the models (§V-A).
    """

    name: str
    soc: SoCSpec
    n_sockets: int
    dram_bytes: int
    hpl_fraction: float
    stream_fraction: float

    @property
    def peak_flops(self) -> float:
        """Node peak double-precision FLOP/s."""
        return self.soc.peak_flops * self.n_sockets

    @property
    def peak_bandwidth(self) -> float:
        """Node peak memory bandwidth, bytes/s."""
        return self.soc.memory.peak_bandwidth_bytes_per_s * self.n_sockets

    @property
    def n_cores(self) -> int:
        """Total physical cores in the node."""
        return self.soc.n_cores * self.n_sockets


# --------------------------------------------------------------------------
# Monte Cimone: SiFive Freedom U740 (HiFive Unmatched)
# --------------------------------------------------------------------------
#: Shared 2 MiB L2 with an 8-stream-per-core prefetcher (§V-A discussion).
L2_SPEC = CacheSpec(
    size_bytes=2 * MIB,
    # L2-resident STREAM copy attains 7079 MB/s (Table V); headroom above
    # that is modest on this part, so the L2 peak is set at ~9.6 GB/s.
    bandwidth_bytes_per_s=9.6e9,
    prefetch_streams=8,
)

#: 16 GB single-channel DDR4 operating up to 1866 MT/s; the paper quotes a
#: peak of 7760 MB/s, which is what all efficiency ratios are computed from.
DDR_SPEC = MemorySpec(
    capacity_bytes=16 * GIB,
    peak_bandwidth_bytes_per_s=7760e6,
)

#: The U740: four U74 RV64GCB application cores, dual-issue in-order, up to
#: 1.2 GHz.  Peak 1.0 GFLOP/s per core (paper §V-A, inferred from the
#: micro-architecture specification) => 4.0 GFLOP/s per chip.
U740_SPEC = SoCSpec(
    name="SiFive Freedom U740",
    isa="RV64GCB",
    n_cores=4,
    clock_hz=1.2e9,
    flops_per_cycle_per_core=1.0e9 / 1.2e9,  # 1.0 GFLOP/s at 1.2 GHz
    l2=L2_SPEC,
    memory=DDR_SPEC,
)

#: One Monte Cimone node: a single U740 with 16 GB DDR4.
#: HPL fraction 0.465 and STREAM fraction 0.155 are the §V-A results.
MONTE_CIMONE_NODE = NodeSpec(
    name="montecimone",
    soc=U740_SPEC,
    n_sockets=1,
    dram_bytes=16 * GIB,
    hpl_fraction=0.465,
    stream_fraction=0.155,
)


# --------------------------------------------------------------------------
# Comparison nodes (same upstream-stack benchmarking boundary conditions)
# --------------------------------------------------------------------------
def _comparator(name: str, isa: str, n_cores: int, clock_hz: float,
                flops_per_cycle: float, mem_bw: float, dram: int,
                hpl_fraction: float, stream_fraction: float,
                n_sockets: int = 2) -> NodeSpec:
    """Build a comparison-node spec with a generic cache description."""
    soc = SoCSpec(
        name=name,
        isa=isa,
        n_cores=n_cores,
        clock_hz=clock_hz,
        flops_per_cycle_per_core=flops_per_cycle,
        l2=CacheSpec(size_bytes=8 * MIB, bandwidth_bytes_per_s=mem_bw * 4,
                     prefetch_streams=16),
        memory=MemorySpec(capacity_bytes=dram,
                          peak_bandwidth_bytes_per_s=mem_bw),
    )
    return NodeSpec(name=name.lower().replace(" ", ""), soc=soc,
                    n_sockets=n_sockets, dram_bytes=dram,
                    hpl_fraction=hpl_fraction, stream_fraction=stream_fraction)


#: Marconi100 node (CINECA): 2× IBM POWER9 AC922, CPU-only peak considered.
#: Upstream HPL attains 59.7% of CPU-only peak; upstream STREAM 48.2% (§V-A).
MARCONI100_NODE = _comparator(
    name="Marconi100 Power9", isa="ppc64le",
    n_cores=16, clock_hz=3.1e9, flops_per_cycle=8.0,
    mem_bw=140e9, dram=256 * GIB,
    hpl_fraction=0.597, stream_fraction=0.482,
)

#: Armida node (E4): 2× Marvell ThunderX2 CN9980 (ARMv8a).
#: Upstream HPL attains 65.79% of peak; upstream STREAM 63.21% (§V-A).
ARMIDA_NODE = _comparator(
    name="Armida ThunderX2", isa="armv8a",
    n_cores=32, clock_hz=2.2e9, flops_per_cycle=8.0,
    mem_bw=160e9, dram=256 * GIB,
    hpl_fraction=0.6579, stream_fraction=0.6321,
)
