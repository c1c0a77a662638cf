"""Point-to-point link parameters and link faults.

A :class:`Link` is one port of the GbE star: its payload bandwidth and
latency, and its fault state.  It computes no transfer time itself; the
MPI cost model (:class:`~repro.network.mpi.MPICostModel`) derives every
message cost from the links of the topology.

Fault injection (the chaos harness): a link can be taken *down* — a
collective over it raises :class:`LinkDownError`, the model of a TCP
connect/send timing out on a flapped port — or *degraded*, dividing its
payload bandwidth by a factor (duplex renegotiated to 100 Mb/s, a
half-broken cable) while staying up.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Link", "LinkDownError"]


class LinkDownError(ConnectionError):
    """A transfer was attempted over a link that is administratively down."""

    def __init__(self, link_name: str) -> None:
        super().__init__(f"link {link_name!r} is down")
        self.link_name = link_name


@dataclass
class Link:
    """A duplex link between two endpoints.

    Attributes
    ----------
    name:
        Identifier, e.g. ``"mc-node-1<->switch"``.
    bandwidth_bytes_per_s:
        Payload bandwidth after protocol overhead (GbE with TCP/MPI
        overhead delivers ~117 MB/s of the 125 MB/s raw).
    latency_s:
        One-way small-message latency, including the software stack
        (~50 µs for MPI-over-TCP-over-GbE on these cores).
    up:
        Availability; a collective over a down link raises
        :class:`LinkDownError`.
    degraded_factor:
        Bandwidth divisor while degraded (``1.0`` = healthy); must be
        ``>= 1`` — degradation never *adds* bandwidth.
    """

    name: str
    bandwidth_bytes_per_s: float = 117e6
    latency_s: float = 50e-6
    up: bool = True
    degraded_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0:
            raise ValueError("latency cannot be negative")
        if self.degraded_factor < 1.0:
            raise ValueError("degradation factor must be >= 1")

    @property
    def effective_bandwidth_bytes_per_s(self) -> float:
        """Payload bandwidth after any injected degradation."""
        return self.bandwidth_bytes_per_s / self.degraded_factor

    # -- fault injection -----------------------------------------------------
    def set_down(self) -> None:
        """Flap the link down: collectives raise until :meth:`set_up`."""
        self.up = False

    def set_up(self) -> None:
        """Bring the link back up (degradation, if any, persists)."""
        self.up = True

    def set_degraded(self, factor: float) -> None:
        """Degrade the link's bandwidth by ``factor`` (``>= 1``)."""
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        self.degraded_factor = float(factor)

    def clear_degraded(self) -> None:
        """Restore full bandwidth."""
        self.degraded_factor = 1.0
