"""Simulated /proc for one node.

stats_pub (Table III) collects load averages, CPU usage breakdown, memory
usage, paging, disk and network totals, interrupt/context-switch rates and
process counts.  On the real node those come from /proc; here the node
lifecycle feeds a :class:`ProcFS` whose accessors return the structured
values the plugin publishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

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
        #: (dt_s, utilisation, sys_fraction, wait_fraction, *increments)
        #: of the last :meth:`account_cpu` call; filled on first use.
        self._cpu_memo: Optional[tuple] = None

    # -- lifecycle hooks -----------------------------------------------------
    def account_cpu(self, dt_s: float, utilisation: float,
                    sys_fraction: float = 0.08, wait_fraction: float = 0.0) -> None:
        """Advance the CPU time counters for ``dt_s`` of wall time.

        ``utilisation`` is the busy fraction across cores; of the busy
        share, ``sys_fraction`` is kernel time.  Interrupt and context-
        switch counters advance at activity-scaled rates.

        The per-interval increments depend on the four arguments alone, so
        the last set is kept, keyed on all four; the counters accumulate
        them every call, in the same order as a fresh evaluation.
        """
        memo = self._cpu_memo
        if (memo is None or memo[0] != dt_s or memo[1] != utilisation
                or memo[2] != sys_fraction or memo[3] != wait_fraction):
            # A hit matches a call already checked here, and NaN matches
            # nothing, so checking on a miss checks every call.
            if not dt_s >= 0:  # also rejects NaN
                raise ValueError("negative interval")
            if any(math.isnan(x)
                   for x in (utilisation, sys_fraction, wait_fraction)):
                raise ValueError("NaN utilisation or fraction")
            ticks = dt_s * self.USER_HZ * self.n_cores
            busy = ticks * utilisation
            wait = ticks * wait_fraction
            memo = self._cpu_memo = (
                dt_s, utilisation, sys_fraction, wait_fraction,
                busy * (1.0 - sys_fraction), busy * sys_fraction, wait,
                max(ticks - busy - wait, 0.0),
                int(dt_s * (250 + 4000 * utilisation)),
                int(dt_s * (500 + 9000 * utilisation)),
                # Exponentially-smoothed load averages driven by the run
                # queue: the run-queue length and the three gains.
                utilisation * self.n_cores,
                min(dt_s / 60.0, 1.0), min(dt_s / 300.0, 1.0),
                min(dt_s / 900.0, 1.0))
        (_, _, _, _, usr, system, wait, idl, interrupts, context_switches,
         runnable, gain_1m, gain_5m, gain_15m) = memo
        cpu = self.cpu
        cpu.usr += usr
        cpu.sys += system
        cpu.wai += wait
        cpu.idl += idl
        self.interrupts_total += interrupts
        self.context_switches_total += context_switches
        self.load_1m += gain_1m * (runnable - self.load_1m)
        self.load_5m += gain_5m * (runnable - self.load_5m)
        self.load_15m += gain_15m * (runnable - self.load_15m)

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
