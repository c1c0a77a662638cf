"""Network interfaces: the on-board GbE and the Infiniband FDR HCA.

§III of the paper: every node has a Microsemi VSC8541 gigabit Ethernet PHY;
two nodes additionally carry a Mellanox ConnectX-4 FDR (56 Gbit/s) HCA on
the PCIe Gen3 x8 slot.  The Infiniband bring-up reached a precise, partial
state that the model reproduces as a small state machine:

* the kernel recognises the device and loads the mlx5 module,
* the Mellanox OFED stack mounts,
* ``ibping`` between two boards (and board↔server) succeeds,
* RDMA verbs fail due to unresolved software-stack/kernel incompatibilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

__all__ = ["GigabitEthernet", "InfinibandHCA", "IBState", "RDMAUnsupportedError"]


class RDMAUnsupportedError(RuntimeError):
    """RDMA verbs are not functional on the Monte Cimone IB stack (§III)."""


@dataclass
class GigabitEthernet:
    """The VSC8541-attached 1 Gbit/s Ethernet port.

    This is the interconnect the whole-machine HPL run used.  The port
    holds the traffic counters; message costs come from the MPI cost
    model over :class:`~repro.network.link.Link`.
    """

    name: str = "eth0"
    #: Cumulative traffic counters surfaced by stats_pub (net_total.*).
    bytes_sent: int = 0
    bytes_received: int = 0

    def account_send(self, n_bytes: int) -> None:
        """Record transmitted payload bytes."""
        if n_bytes < 0:
            raise ValueError("negative byte count")
        self.bytes_sent += n_bytes

    def account_receive(self, n_bytes: int) -> None:
        """Record received payload bytes."""
        if n_bytes < 0:
            raise ValueError("negative byte count")
        self.bytes_received += n_bytes


class IBState(Enum):
    """Bring-up states of the ConnectX-4 HCA on RISC-V (§III narrative)."""

    ABSENT = "absent"
    DETECTED = "detected"          # PCIe enumeration found the device
    DRIVER_LOADED = "driver"       # mlx5_core bound, OFED stack mounted
    LINK_ACTIVE = "link_active"    # port active, ibping works


class InfinibandHCA:
    """A Mellanox ConnectX-4 FDR (4x, 56 Gb/s) HCA in its bring-up state.

    The class walks the state machine the paper describes and hard-fails on
    RDMA — full support is explicitly future work.
    """

    def __init__(self, installed: bool = True) -> None:
        self._state = IBState.DETECTED if installed else IBState.ABSENT

    @property
    def state(self) -> IBState:
        """Current bring-up state."""
        return self._state

    @property
    def installed(self) -> bool:
        """Whether a physical HCA is present in this node's PCIe slot."""
        return self._state is not IBState.ABSENT

    def load_driver(self) -> None:
        """Bind mlx5 and mount the OFED stack (works on Monte Cimone)."""
        if self._state is IBState.ABSENT:
            raise RuntimeError("no HCA installed")
        if self._state is IBState.DETECTED:
            self._state = IBState.DRIVER_LOADED

    def activate_link(self) -> None:
        """Bring the IB port to ACTIVE (works on Monte Cimone)."""
        if self._state is IBState.ABSENT:
            raise RuntimeError("no HCA installed")
        if self._state is IBState.DETECTED:
            raise RuntimeError("driver not loaded")
        self._state = IBState.LINK_ACTIVE

    def ibping(self, peer: "InfinibandHCA") -> bool:
        """The paper's successful IB ping test between two active ports."""
        return (self._state is IBState.LINK_ACTIVE
                and peer._state is IBState.LINK_ACTIVE)

    def rdma_write(self, peer: "InfinibandHCA", n_bytes: int) -> None:
        """RDMA verbs — not functional on Monte Cimone.

        Raises
        ------
        RDMAUnsupportedError
            Always, reproducing the yet-to-be-pinpointed software-stack and
            kernel-driver incompatibilities reported in §III.
        """
        raise RDMAUnsupportedError(
            "RDMA capabilities unavailable: software stack / kernel driver "
            "incompatibilities (Monte Cimone §III; full support is future work)")
