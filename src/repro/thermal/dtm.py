"""Dynamic thermal management — the §VI future-work feature, implemented.

The paper lists "implement dynamic power and thermal management" as future
work (§VI item ii); with the mechanical mitigation, Monte Cimone ran
without it.  This module implements the obvious governor the authors
sketch: a per-node closed-loop clock throttle that holds the SoC below a
setpoint, so an HPL run in the *original* (runaway-prone) enclosure
completes instead of tripping node 7 — at a quantified throughput cost.

Control law
-----------
A stepped proportional governor with hysteresis:

* above ``throttle_c`` the clock steps down one level per control period;
* below ``release_c`` it steps back up one level;
* between the two thresholds it holds (hysteresis prevents oscillation).

Throttle levels follow the U740's PLL divider-style steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator, List

from repro.events.engine import Engine, Event

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.cluster.node import ComputeNode

__all__ = ["ThermalGovernor", "GovernorEvent", "ClusterDTM"]

#: Clock-throttle steps (fractions of the 1.2 GHz nominal clock).
THROTTLE_LEVELS = (1.0, 0.85, 0.70, 0.55, 0.40)


@dataclass(frozen=True)
class GovernorEvent:
    """One throttle-level change, for the DTM audit log."""

    time_s: float
    node: str
    temperature_c: float
    old_scale: float
    new_scale: float


class ThermalGovernor:
    """Closed-loop clock throttling for one node."""

    def __init__(self, node: "ComputeNode", throttle_c: float = 95.0,
                 release_c: float = 85.0, period_s: float = 2.0) -> None:
        if release_c >= throttle_c:
            raise ValueError("release threshold must be below throttle "
                             "threshold (hysteresis)")
        if period_s <= 0:
            raise ValueError("control period must be positive")
        self.node = node
        self.throttle_c = throttle_c
        self.release_c = release_c
        self.period_s = period_s
        self._level = 0
        self.events: List[GovernorEvent] = []

    @property
    def scale(self) -> float:
        """Current throttle factor."""
        return THROTTLE_LEVELS[self._level]

    @property
    def throttled(self) -> bool:
        """Whether the node is currently below nominal clock."""
        return self._level > 0

    def control_step(self, now_s: float) -> None:
        """One control period: read the sensor, maybe step the clock."""
        from repro.cluster.node import NodeState

        if self.node.state in (NodeState.OFF, NodeState.TRIPPED):
            return
        temperature = self.node.cpu_temperature_c()
        old_level = self._level
        if temperature >= self.throttle_c and self._level < len(THROTTLE_LEVELS) - 1:
            self._level += 1
        elif temperature <= self.release_c and self._level > 0:
            self._level -= 1
        if self._level != old_level:
            self.events.append(GovernorEvent(
                time_s=now_s, node=self.node.hostname,
                temperature_c=temperature,
                old_scale=THROTTLE_LEVELS[old_level],
                new_scale=THROTTLE_LEVELS[self._level]))
            self.node.set_frequency_scale(THROTTLE_LEVELS[self._level], now_s)

    def run(self, engine: Engine) -> Generator[Event, None, None]:
        """The governor daemon as a simulation process."""
        while True:
            yield engine.timeout(self.period_s)
            self.control_step(engine.now)


class ClusterDTM:
    """One governor per compute node, plus cluster-level reporting."""

    def __init__(self, nodes: Dict[str, "ComputeNode"],
                 throttle_c: float = 95.0, release_c: float = 85.0) -> None:
        self.governors = {
            hostname: ThermalGovernor(node, throttle_c=throttle_c,
                                      release_c=release_c)
            for hostname, node in nodes.items()}

    def start(self, engine: Engine) -> None:
        """Start every governor daemon."""
        for hostname, governor in self.governors.items():
            engine.spawn(governor.run(engine), name=f"dtm@{hostname}")

    def all_events(self) -> List[GovernorEvent]:
        """The merged, time-ordered audit log."""
        events = [event for governor in self.governors.values()
                  for event in governor.events]
        return sorted(events, key=lambda e: e.time_s)
