"""Simulated /proc for one node.

stats_pub (Table III) collects load averages, CPU usage breakdown, memory
usage, paging, disk and network totals, interrupt/context-switch rates and
process counts.  On the real node those come from /proc; here the node
lifecycle feeds a :class:`ProcFS` whose accessors return the structured
values the plugin publishes.

The CPU, interrupt and load accounting is settled state: the node does
not account each second as it passes, but hands over a run of equal
ticks when something is about to read it (``ComputeNode.settle``), and
:meth:`ProcFS.account_cpu` applies the run with the float operations, in
the order, that one call per tick would make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Mapping

__all__ = ["ProcFS", "CpuTimes"]


@dataclass
class CpuTimes:
    """Cumulative CPU time split, in USER_HZ ticks, /proc/stat style."""

    usr: float = 0.0
    sys: float = 0.0
    idl: float = 0.0
    wai: float = 0.0
    stl: float = 0.0

    def total(self) -> float:
        """All accounted ticks."""
        return self.usr + self.sys + self.idl + self.wai + self.stl

    def percentages(self) -> Dict[str, float]:
        """The total_cpu_usage.* split stats_pub publishes, in percent."""
        total = self.total()
        if total <= 0:
            return {"usr": 0.0, "sys": 0.0, "idl": 100.0, "wai": 0.0, "stl": 0.0}
        return {name: 100.0 * getattr(self, name) / total
                for name in ("usr", "sys", "idl", "wai", "stl")}


class ProcFS:
    """The /proc view of one simulated node."""

    USER_HZ = 100

    def __init__(self, n_cores: int, dram_bytes: int) -> None:
        if n_cores < 1:
            raise ValueError("need at least one core")
        self.n_cores = n_cores
        self.dram_bytes = dram_bytes
        self.cpu = CpuTimes()
        self.load_1m = 0.0
        self.load_5m = 0.0
        self.load_15m = 0.0
        self.procs_running = 1
        self.procs_blocked = 0
        self.procs_new_total = 0
        self.interrupts_total = 0
        self.context_switches_total = 0
        self.paging_in_total = 0
        self.paging_out_total = 0
        self.io_read_total = 0
        self.io_write_total = 0
        self.mem_used = 0
        self.mem_free = dram_bytes
        self.mem_buff = 0
        self.mem_cach = 0

    # -- lifecycle hooks -----------------------------------------------------
    def account_cpu(self, dt_s: float, ticks: int, utilisation: float,
                    sys_fraction: float = 0.08, wait_fraction: float = 0.0) -> None:
        """Advance the CPU time counters over ``ticks`` intervals of
        ``dt_s`` wall time each.

        ``utilisation`` is the busy fraction across cores; of the busy
        share, ``sys_fraction`` is kernel time.  Interrupt and context-
        switch counters advance at activity-scaled rates.

        The float counters and load averages take ``ticks`` updates in
        turn, ending on the bits ``ticks`` separate intervals give; the
        integer counters take one product.
        """
        if not dt_s >= 0:  # also rejects NaN
            raise ValueError("negative interval")
        if (math.isnan(utilisation) or math.isnan(sys_fraction)
                or math.isnan(wait_fraction)):
            raise ValueError("NaN utilisation or fraction")
        ticks_hz = dt_s * self.USER_HZ * self.n_cores
        busy = ticks_hz * utilisation
        wait = ticks_hz * wait_fraction
        usr = busy * (1.0 - sys_fraction)
        system = busy * sys_fraction
        idl = max(ticks_hz - busy - wait, 0.0)
        interrupts = int(dt_s * (250 + 4000 * utilisation))
        context_switches = int(dt_s * (500 + 9000 * utilisation))
        # Exponentially-smoothed load averages driven by the run queue:
        # the run-queue length and the three gains.
        runnable = utilisation * self.n_cores
        gain_1m = min(dt_s / 60.0, 1.0)
        gain_5m = min(dt_s / 300.0, 1.0)
        gain_15m = min(dt_s / 900.0, 1.0)
        cpu = self.cpu
        cpu_usr, cpu_sys, cpu_wai, cpu_idl = cpu.usr, cpu.sys, cpu.wai, cpu.idl
        load_1m, load_5m, load_15m = self.load_1m, self.load_5m, self.load_15m
        for _ in repeat(None, ticks):
            cpu_usr += usr
            cpu_sys += system
            cpu_wai += wait
            cpu_idl += idl
            load_1m += gain_1m * (runnable - load_1m)
            load_5m += gain_5m * (runnable - load_5m)
            load_15m += gain_15m * (runnable - load_15m)
        cpu.usr, cpu.sys, cpu.wai, cpu.idl = cpu_usr, cpu_sys, cpu_wai, cpu_idl
        self.load_1m, self.load_5m, self.load_15m = load_1m, load_5m, load_15m
        self.interrupts_total += interrupts * ticks
        self.context_switches_total += context_switches * ticks

    def update_memory(self, usage: Mapping[str, int]) -> None:
        """Mirror the DDR subsystem's usage split (used/free/buff/cach)."""
        self.mem_used = usage["used"]
        self.mem_free = usage["free"]
        self.mem_buff = usage["buff"]
        self.mem_cach = usage["cach"]

    # -- structured reads (what stats_pub publishes) -------------------------
    def loadavg(self) -> Dict[str, float]:
        """The load_avg.* metrics of Table III."""
        return {"1m": self.load_1m, "5m": self.load_5m, "15m": self.load_15m}

    def memory(self) -> Dict[str, int]:
        """The memory_usage.* metrics of Table III."""
        return {"used": self.mem_used, "free": self.mem_free,
                "buff": self.mem_buff, "cach": self.mem_cach}

    def processes(self) -> Dict[str, int]:
        """The procs.* metrics of Table III."""
        return {"run": self.procs_running, "blk": self.procs_blocked,
                "new": self.procs_new_total}

    def system(self) -> Dict[str, int]:
        """The system.* metrics (interrupts, context switches)."""
        return {"int": self.interrupts_total, "csw": self.context_switches_total}

    def paging(self) -> Dict[str, int]:
        """The paging.* metrics."""
        return {"in": self.paging_in_total, "out": self.paging_out_total}
