"""The E4 RV007 blade: a 1U dual-node building block.

§III: the RV007 prototype is a dual-board platform server (1 RU high,
42.5 cm wide, 40 cm deep) with **two 250 W power supplies, one per
board**, so every compute node can be powered individually — and with
abundant headroom for future PCIe accelerators.  The PSUs' waste heat is
what starves the centre blades of cool air in the original enclosure
configuration (§V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.cluster.node import ComputeNode

__all__ = ["PSU", "RV007Blade"]


@dataclass
class PSU:
    """One 250 W supply feeding one board."""

    rated_watts: float = 250.0
    efficiency: float = 0.88
    on: bool = False

    def switch_on(self) -> None:
        """Energise the output."""
        self.on = True

    def input_power_w(self, load_w: float) -> float:
        """Wall power drawn for a given DC load (conversion losses)."""
        if load_w < 0:
            raise ValueError("negative load")
        if load_w > self.rated_watts:
            raise ValueError(f"load {load_w} W exceeds rating {self.rated_watts} W")
        if not self.on:
            return 0.0
        return load_w / self.efficiency

    def waste_heat_w(self, load_w: float) -> float:
        """Heat dissipated inside the case by the conversion."""
        return self.input_power_w(load_w) - (load_w if self.on else 0.0)


class RV007Blade:
    """One blade: two compute nodes, two PSUs, a shared 1U case."""

    FORM_FACTOR_CM = (4.44, 42.5, 40.0)  # H × W × D

    def __init__(self, blade_id: int, nodes: Tuple[ComputeNode, ComputeNode]) -> None:
        if len(nodes) != 2:
            raise ValueError("an RV007 blade carries exactly two boards")
        self.blade_id = blade_id
        self.nodes: List[ComputeNode] = list(nodes)
        self.psus = [PSU(), PSU()]

    def power_on_node(self, index: int, now_s: float = 0.0) -> None:
        """Energise one board independently (the RV007's key feature)."""
        self.psus[index].switch_on()
        self.nodes[index].power_on(now_s)

    def total_dc_power_w(self) -> float:
        """DC power drawn by both boards."""
        return sum(node.total_power_w() for node in self.nodes)

    def total_wall_power_w(self) -> float:
        """AC power including PSU conversion losses."""
        return sum(psu.input_power_w(node.total_power_w())
                   for psu, node in zip(self.psus, self.nodes))

    def waste_heat_w(self) -> float:
        """PSU heat dumped into the case (the §V-C airflow problem)."""
        return sum(psu.waste_heat_w(node.total_power_w())
                   for psu, node in zip(self.psus, self.nodes))
