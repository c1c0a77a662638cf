"""HPL (High-Performance Linpack) workload model.

Reproduces the paper's §V-A HPL experiments:

* single node: N=40704, NB=192 → 1.86 ± 0.04 GFLOP/s = 46.5% of the
  4.0 GFLOP/s peak, total runtime 24105 ± 587 s;
* full machine (8 nodes over 1 GbE): 12.65 ± 0.52 GFLOP/s = 39.5% of
  machine peak = 85% of perfect linear scaling, runtime 3548 ± 136 s;
* the comparison runs on Marconi100 (59.7%) and Armida (65.79%) under the
  same upstream-stack boundary conditions.

Model
-----
HPL factorises an N×N system in N/NB panel steps.  Per panel the model
accounts three phases:

1. *panel factorisation + broadcast* — the panel (``(N-k·NB)×NB`` doubles)
   is broadcast along the process grid (binomial tree over nodes);
2. *row swaps* (pdlaswp) — a ring exchange of the same volume across nodes;
3. *trailing-matrix update* — DGEMM at the node's calibrated HPL
   efficiency (:attr:`~repro.hardware.specs.NodeSpec.hpl_fraction`),
   perfectly parallel over nodes.

Communication is multiplied by :attr:`HPLModel.STACK_OVERHEAD`, the
calibrated inefficiency of the upstream MPI-over-TCP-over-GbE stack with
no compute/communication overlap (fitted once, at the 8-node point; the
2- and 4-node points and the 85%-of-linear result then *emerge*).
Intra-node ranks (1 per physical core, the paper's topology) communicate
through shared memory and are treated as free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.benchmarks.base import RunStatistics
from repro.hardware.specs import MONTE_CIMONE_NODE, NodeSpec
from repro.network.mpi import MPICostModel
from repro.network.topology import ClusterTopology

__all__ = ["HPLConfig", "HPLResult", "HPLModel"]


@dataclass(frozen=True)
class HPLConfig:
    """An HPL.dat-style configuration.

    Defaults are the paper's values: N=40704, NB=192, one MPI task per
    physical core.
    """

    n: int = 40704
    nb: int = 192
    n_nodes: int = 1
    ranks_per_node: int = 4

    def __post_init__(self) -> None:
        if self.n <= 0 or self.nb <= 0:
            raise ValueError("N and NB must be positive")
        if self.nb > self.n:
            raise ValueError(f"NB={self.nb} exceeds N={self.n}")
        if self.n_nodes < 1:
            raise ValueError("need at least one node")

    @property
    def flops(self) -> float:
        """Operation count of LU + solve: 2/3·N³ + 2·N²."""
        return (2.0 / 3.0) * self.n ** 3 + 2.0 * self.n ** 2

    @property
    def n_panels(self) -> int:
        """Number of panel steps."""
        return math.ceil(self.n / self.nb)

    @property
    def matrix_bytes(self) -> int:
        """Storage of the dense double-precision system matrix."""
        return self.n * self.n * 8


@dataclass(frozen=True)
class HPLResult:
    """Outcome of one modelled HPL run."""

    config: HPLConfig
    gflops: RunStatistics
    runtime_s: RunStatistics
    efficiency: float          # fraction of aggregate peak
    compute_time_s: float      # modelled compute component
    comm_time_s: float         # modelled communication component


class HPLModel:
    """Analytic HPL performance model over a node spec and a network.

    Parameters
    ----------
    node:
        Machine descriptor; its ``hpl_fraction`` is the calibrated
        single-node efficiency of the upstream software stack.
    topology:
        Required for multi-node runs; defaults to the Monte Cimone GbE
        star built on demand.
    """

    #: Calibrated inefficiency multiplier of the upstream MPI/TCP stack
    #: (no overlap, extra copies, software TCP on in-order cores).
    STACK_OVERHEAD = 2.4
    #: Relative run-to-run spread observed by the paper (0.04/1.86).
    RELATIVE_SPREAD = 0.022

    def __init__(self, node: NodeSpec = MONTE_CIMONE_NODE,
                 topology: ClusterTopology | None = None) -> None:
        self.node = node
        self.topology = topology

    # -- model internals ----------------------------------------------------
    def compute_time_s(self, config: HPLConfig) -> float:
        """Pure compute time, perfectly parallel across nodes."""
        attained = self.node.peak_flops * self.node.hpl_fraction
        return config.flops / (attained * config.n_nodes)

    def comm_time_s(self, config: HPLConfig) -> float:
        """Inter-node communication time over all panel steps."""
        if config.n_nodes == 1:
            return 0.0
        topology = self._topology_for(config.n_nodes)
        mpi = MPICostModel(topology)
        total = 0.0
        for k in range(config.n_panels):
            rows_left = config.n - k * config.nb
            panel_bytes = max(rows_left, 0) * config.nb * 8
            total += mpi.broadcast(panel_bytes, config.n_nodes)
            total += mpi.ring_exchange(panel_bytes, config.n_nodes)
        return total * self.STACK_OVERHEAD

    def _topology_for(self, n_nodes: int) -> ClusterTopology:
        if self.topology is not None:
            return self.topology
        return ClusterTopology(f"mc-node-{i + 1}" for i in range(n_nodes))

    # -- public API ----------------------------------------------------------
    def validate_memory(self, config: HPLConfig) -> None:
        """Check the matrix fits the aggregate DRAM (80% usable)."""
        per_node = config.matrix_bytes / config.n_nodes
        budget = 0.8 * self.node.dram_bytes
        if per_node > budget:
            raise MemoryError(
                f"HPL N={config.n}: {per_node / 2 ** 30:.1f} GiB per node "
                f"exceeds the {budget / 2 ** 30:.1f} GiB budget")

    def run(self, config: HPLConfig | None = None, seed: int = 2022) -> HPLResult:
        """Model one HPL execution (10 repetitions, mean ± std)."""
        config = config if config is not None else HPLConfig()
        self.validate_memory(config)
        compute = self.compute_time_s(config)
        comm = self.comm_time_s(config)
        runtime_central = compute + comm
        gflops_central = config.flops / runtime_central / 1e9
        gflops = RunStatistics.from_model(gflops_central, self.RELATIVE_SPREAD,
                                          seed=seed)
        runtime = RunStatistics.from_model(runtime_central, self.RELATIVE_SPREAD,
                                           seed=seed + 1)
        peak = self.node.peak_flops * config.n_nodes / 1e9
        return HPLResult(config=config, gflops=gflops, runtime_s=runtime,
                         efficiency=gflops_central / peak,
                         compute_time_s=compute, comm_time_s=comm)

    def strong_scaling(self, node_counts: tuple[int, ...] = (1, 2, 4, 8),
                       config: HPLConfig | None = None,
                       seed: int = 2022) -> dict[int, HPLResult]:
        """The Fig. 2 experiment: same problem, growing node counts."""
        base = config if config is not None else HPLConfig()
        results = {}
        for i, n_nodes in enumerate(node_counts):
            cfg = HPLConfig(n=base.n, nb=base.nb, n_nodes=n_nodes,
                            ranks_per_node=base.ranks_per_node)
            results[n_nodes] = self.run(cfg, seed=seed + 10 * i)
        return results
