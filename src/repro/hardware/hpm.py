"""Hardware performance-monitoring (HPM) counters and the perf_events view.

§IV-B of the paper: the Linux perf_events interface on RISC-V exposes the
fixed INSTRET and CYCLE counters; the *programmable* counters of the U740's
HPM unit are disabled at boot and the authors developed a U-Boot patch to
enable and program them.  This module models both layers:

* :class:`HPMUnit` — the per-core counter bank with the boot-time enable
  mask; programmable events silently read zero until the bootloader patch
  (modelled by :meth:`HPMUnit.enable_programmable`) has run.
* :class:`PerfEventsInterface` — the per-node OS view pmu_pub samples at
  2 Hz, returning monotonically increasing counts per core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

__all__ = ["HPMUnit", "PerfEventsInterface", "PROGRAMMABLE_EVENTS", "FIXED_EVENTS"]

#: Events available on the fixed counters (always on).
FIXED_EVENTS = ("cycles", "instructions")

#: Events the programmable HPM counters can be configured for.  The list
#: follows the U74-MC manual's event groups at the granularity the paper's
#: plugin samples.
PROGRAMMABLE_EVENTS = (
    "fp_ops",
    "l2_miss",
    "load_store",
    "branch_mispredict",
    "itlb_miss",
    "dtlb_miss",
)


class HPMUnit:
    """Per-core hardware counter bank.

    Fixed counters (CYCLE, INSTRET) always accumulate.  Programmable
    counters accumulate only after :meth:`enable_programmable` — the
    behaviour of the stock U-Boot (counters off) versus the authors' patched
    U-Boot (counters on and programmed).
    """

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self.cycle = 0
        self.instret = 0
        self._programmable_enabled = False
        self._events: Dict[str, int] = {name: 0 for name in PROGRAMMABLE_EVENTS}

    # -- configuration -------------------------------------------------------
    @property
    def programmable_enabled(self) -> bool:
        """Whether the U-Boot patch has enabled the programmable bank."""
        return self._programmable_enabled

    def enable_programmable(self) -> None:
        """Enable and program all HPM counters (the paper's U-Boot patch)."""
        self._programmable_enabled = True

    # -- accumulation ----------------------------------------------------------
    def add_event(self, name: str, n: int) -> None:
        """Accumulate a programmable event.

        Counts are discarded while the programmable bank is disabled,
        mirroring hardware counters that are simply not counting.
        """
        if name not in self._events:
            raise KeyError(f"unknown HPM event {name!r}")
        if n < 0:
            raise ValueError(f"negative event count {n}")
        if self._programmable_enabled:
            self._events[name] += n

    def add_counts(self, cycles: int, instructions: int, fp_ops: int,
                   l2_miss: int, load_store: int) -> None:
        """Accumulate one slice of core work: CYCLE, INSTRET and three events.

        A negative increment is rejected before any counter moves.  The
        programmable events are discarded while the bank is disabled, as in
        :meth:`add_event`.
        """
        if (cycles < 0 or instructions < 0 or fp_ops < 0 or l2_miss < 0
                or load_store < 0):
            raise ValueError("negative HPM increment in "
                             f"{cycles, instructions, fp_ops, l2_miss, load_store}")
        self.cycle += cycles
        self.instret += instructions
        if self._programmable_enabled:
            events = self._events
            events["fp_ops"] += fp_ops
            events["l2_miss"] += l2_miss
            events["load_store"] += load_store

    # -- reads -------------------------------------------------------------
    def read_event(self, name: str) -> int:
        """Read a programmable event counter (zero while disabled)."""
        if name not in self._events:
            raise KeyError(f"unknown HPM event {name!r}")
        return self._events[name]

    def snapshot(self) -> Dict[str, int]:
        """All counters as one mapping, as perf would enumerate them."""
        data = {"cycles": self.cycle, "instructions": self.instret}
        data.update(self._events)
        return data


class PerfEventsInterface:
    """The OS-level perf_events view over a set of per-core HPM units.

    pmu_pub opens one event group per core and reads deltas at a fixed rate;
    this class supports that by exposing absolute counter reads (the plugin
    differentiates).  Reads are user-mode safe: no special privilege state
    is modelled because the kernel's perf layer virtualises the CSRs.
    """

    def __init__(self, hpm_units: Iterable[HPMUnit]) -> None:
        self._units = {unit.core_id: unit for unit in hpm_units}
        if not self._units:
            raise ValueError("perf interface needs at least one core")

    @property
    def core_ids(self) -> list[int]:
        """Cores enumerated by the interface, ascending."""
        return sorted(self._units)

    def available_events(self, core_id: int) -> list[str]:
        """Event names that return live values on ``core_id`` right now."""
        unit = self._units[core_id]
        events = list(FIXED_EVENTS)
        if unit.programmable_enabled:
            events.extend(PROGRAMMABLE_EVENTS)
        return events

    def read(self, core_id: int, event: str) -> int:
        """Absolute counter value for ``event`` on ``core_id``.

        Fixed counters always read; programmable events read zero while the
        bank is disabled — the exact symptom the paper's U-Boot patch fixes.
        """
        unit = self._units[core_id]
        if event == "cycles":
            return unit.cycle
        if event == "instructions":
            return unit.instret
        return unit.read_event(event)

    def read_all(self, core_id: int) -> Mapping[str, int]:
        """Snapshot of every counter on one core."""
        return self._units[core_id].snapshot()
