"""Fault vocabulary and the deterministic chaos event log.

A chaos campaign is a sequence of *inject*/*restore* actions against
named targets.  Every action is appended to a :class:`ChaosLog` the
moment it happens (in simulated time), and the log renders to stable
text lines — two runs of the same campaign under the same seed must
produce byte-identical logs, which is the determinism acceptance test of
the harness (``repro chaos <scenario>`` prints exactly these lines).

The fault taxonomy mirrors the layers of the reproduced system:

========================  =====================================================
kind                      meaning / paper anchor
========================  =====================================================
``sensor-dropout``        a hwmon sensor stops answering reads (Table IV)
``sensor-stuck``          a sensor freezes at its last value
``broker-outage``         the master-node MQTT broker is down (§IV-B)
``link-down``             a GbE port link is down (§IV star network)
``link-degraded``         a link runs at a fraction of nominal bandwidth
``service-outage``        NFS or LDAP on the master node is down (§IV-A)
``node-trip``             a compute node lost to an over-temperature trip
                          (Fig. 6), recovered through SLURM drain→resume
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

__all__ = ["FaultKind", "FaultEvent", "ChaosLog"]


class FaultKind:
    """String constants naming every injectable fault."""

    SENSOR_DROPOUT = "sensor-dropout"
    SENSOR_STUCK = "sensor-stuck"
    BROKER_OUTAGE = "broker-outage"
    LINK_DOWN = "link-down"
    LINK_DEGRADED = "link-degraded"
    SERVICE_OUTAGE = "service-outage"
    NODE_TRIP = "node-trip"


@dataclass(frozen=True)
class FaultEvent:
    """One inject/restore action at one simulated instant."""

    time_s: float
    action: str  # "inject" | "restore"
    kind: str
    target: str
    detail: str = ""

    def line(self) -> str:
        """Stable text rendering (fixed-width time, no floats elsewhere)."""
        suffix = f" {self.detail}" if self.detail else ""
        return (f"t={self.time_s:012.6f} {self.action:>7} "
                f"{self.kind} {self.target}{suffix}")


@dataclass
class ChaosLog:
    """Append-only record of a campaign's fault/recovery actions."""

    events: List[FaultEvent] = field(default_factory=list)

    def add(self, time_s: float, action: str, kind: str, target: str,
            detail: str = "") -> FaultEvent:
        """Append one action; returns the recorded event."""
        if action not in ("inject", "restore"):
            raise ValueError(f"unknown chaos action {action!r}")
        event = FaultEvent(time_s=time_s, action=action, kind=kind,
                           target=target, detail=detail)
        self.events.append(event)
        return event

    def injections(self) -> List[FaultEvent]:
        """Inject actions, in occurrence order."""
        return [e for e in self.events if e.action == "inject"]

    def restores(self) -> List[FaultEvent]:
        """Restore actions, in occurrence order."""
        return [e for e in self.events if e.action == "restore"]

    def lines(self) -> List[str]:
        """The log as stable text lines (the CLI's stdout)."""
        return [event.line() for event in self.events]

    def dumps(self) -> str:
        """The whole log as one newline-terminated string."""
        return "".join(line + "\n" for line in self.lines())
