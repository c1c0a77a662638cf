"""The three-machine efficiency comparison of §V-A.

The paper's methodology: build HPL and STREAM *the same way* (upstream
sources, Spack-deployed toolchain, no vendor libraries) on Monte Cimone, a
Marconi100 node (IBM Power9) and an Armida node (Marvell ThunderX2), and
compare the attained **fraction of each node's own peak** as a
software-stack maturity metric.  The headline rows:

==============  =========  ============
machine          HPL        STREAM
==============  =========  ============
Monte Cimone     46.5%      15.5%
Marconi100       59.7%      48.2%
Armida           65.79%     63.21%
==============  =========  ============
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.benchmarks.hpl import HPLConfig, HPLModel
from repro.benchmarks.stream import StreamConfig, StreamModel
from repro.hardware.specs import (
    ARMIDA_NODE,
    MARCONI100_NODE,
    MONTE_CIMONE_NODE,
    NodeSpec,
)

__all__ = ["COMPARISON_MACHINES", "MachineComparison", "utilisation_table"]

#: The §V-A comparison set, in the paper's order.
COMPARISON_MACHINES: List[NodeSpec] = [
    MONTE_CIMONE_NODE,
    MARCONI100_NODE,
    ARMIDA_NODE,
]


@dataclass(frozen=True)
class MachineComparison:
    """One machine's row in the comparison table."""

    machine: str
    hpl_fraction: float
    stream_fraction: float


def _hpl_config_for(node: NodeSpec) -> HPLConfig:
    """A single-node HPL problem sized to ~80% of the node's DRAM.

    Monte Cimone uses the paper's exact N; the larger comparison nodes get
    a proportionally larger N (the fraction-of-peak metric is size-robust
    once the problem dominates cache effects).
    """
    if node is MONTE_CIMONE_NODE:
        return HPLConfig()
    n = int((0.8 * node.dram_bytes / 8) ** 0.5)
    n -= n % 192  # keep NB-aligned like HPL.dat generators do
    return HPLConfig(n=n, nb=192, ranks_per_node=node.n_cores)


def compare_machine(node: NodeSpec, seed: int = 2022) -> MachineComparison:
    """Run the §V-A protocol on one machine descriptor."""
    hpl = HPLModel(node=node).run(_hpl_config_for(node), seed=seed)
    stream = StreamModel(node=node).run(StreamConfig(array_mib=1945.5),
                                        seed=seed + 5)
    return MachineComparison(
        machine=node.name,
        hpl_fraction=hpl.efficiency,
        stream_fraction=stream.best_fraction_of_peak,
    )


def utilisation_table(seed: int = 2022) -> Dict[str, MachineComparison]:
    """The full three-machine comparison, keyed by machine name."""
    return {node.name: compare_machine(node, seed=seed)
            for node in COMPARISON_MACHINES}
