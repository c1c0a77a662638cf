"""Cluster network topology: GbE star plus the two-node IB island.

All eight compute nodes, the login node and the master node hang off one
gigabit switch (the paper's "1 Gb/s network currently available").  Two
compute nodes additionally form an Infiniband island used only for the
bring-up experiments of §III.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable

from repro.network.link import Link

__all__ = ["Switch", "ClusterTopology"]


@dataclass
class Switch:
    """A non-blocking store-and-forward switch.

    ``port_to_port_latency_s`` adds to the two link latencies on any
    node→node path.  The backplane is non-blocking: concurrent flows only
    contend on the endpoint links, which matches a commodity GbE switch at
    this scale.
    """

    name: str = "tor-switch"
    n_ports: int = 16
    port_to_port_latency_s: float = 5e-6


class ClusterTopology:
    """The star topology of Monte Cimone.

    Parameters
    ----------
    node_names:
        Compute/login/master host names to attach.
    link_bandwidth_bytes_per_s, link_latency_s:
        Per-port link characteristics (defaults: GbE with MPI/TCP overhead).
    """

    def __init__(self, node_names: Iterable[str],
                 link_bandwidth_bytes_per_s: float = 117e6,
                 link_latency_s: float = 50e-6,
                 switch: Switch | None = None) -> None:
        self.switch = switch if switch is not None else Switch()
        self.links: Dict[str, Link] = {}
        for name in node_names:
            self.links[name] = Link(
                name=f"{name}<->{self.switch.name}",
                bandwidth_bytes_per_s=link_bandwidth_bytes_per_s,
                latency_s=link_latency_s)
        if len(self.links) > self.switch.n_ports:
            raise ValueError(
                f"{len(self.links)} nodes exceed switch ports {self.switch.n_ports}")
