"""Thermal-watchdog and runaway bookkeeping (Fig. 6).

During the first HPL runs the paper "encountered a thermal hazard on
node 7, which reached 107 °C and stopped executing".  The watchdog here is
the mechanism that makes the reproduction show the same behaviour: it
observes each node's SoC sensor, records threshold crossings as
:class:`ThermalEvent` records, and trips an over-temperature shutdown
callback when the sensor hits its trip point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

__all__ = ["ThermalEvent", "ThermalWatchdog", "TRIP_CELSIUS",
           "WARNING_CELSIUS"]

#: SoC over-temperature shutdown point: node 7 stopped executing at 107 °C
#: in Fig. 6.
TRIP_CELSIUS = 107.0
#: Logged-but-non-fatal threshold; the ExaMon thermal dashboard shows it.
WARNING_CELSIUS = 90.0


@dataclass(frozen=True)
class ThermalEvent:
    """A recorded thermal incident."""

    time_s: float
    node: str
    kind: str           # "warning" | "trip"
    temperature_c: float


class ThermalWatchdog:
    """Monitors SoC sensors and shuts nodes down at :data:`TRIP_CELSIUS`.

    A sample at or above :data:`WARNING_CELSIUS` is recorded once per node
    as a warning.  ``on_trip`` is a callback ``(node_name) -> None``
    invoked once per trip; the cluster wires this to the node's emergency
    power-off.
    """

    def __init__(self,
                 on_trip: Optional[Callable[[str], None]] = None) -> None:
        # Instance attributes: ``observe`` reads them once per node-second.
        self.trip_celsius = TRIP_CELSIUS
        self.warning_celsius = WARNING_CELSIUS
        self.on_trip = on_trip
        self.events: List[ThermalEvent] = []
        self._tripped: Dict[str, bool] = {}
        self._warned: Dict[str, bool] = {}

    def observe(self, time_s: float, node: str, temperature_c: float) -> None:
        """Feed one temperature sample; may record events and trip the node."""
        if temperature_c >= self.warning_celsius and not self._warned.get(node):
            self._warned[node] = True
            self.events.append(ThermalEvent(time_s, node, "warning", temperature_c))
        if temperature_c >= self.trip_celsius and not self._tripped.get(node):
            self._tripped[node] = True
            self.events.append(ThermalEvent(time_s, node, "trip", temperature_c))
            if self.on_trip is not None:
                self.on_trip(node)

    def tripped_nodes(self) -> List[str]:
        """Names of nodes that hit the trip point, in trip order."""
        return [e.node for e in self.events if e.kind == "trip"]

    def reset(self, node: str) -> None:
        """Clear trip/warning latches after a node is serviced."""
        self._tripped.pop(node, None)
        self._warned.pop(node, None)
