"""Simulated /proc for one node.

stats_pub (Table III) collects load averages, CPU usage breakdown, memory
usage, paging, disk and network totals, interrupt/context-switch rates and
process counts.  On the real node those come from /proc; here the node
lifecycle feeds a :class:`ProcFS` whose accessors return both structured
values (what the plugin publishes) and kernel-formatted text (what the
tests assert against, keeping the substitution honest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

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
    def account_cpu(self, dt_s: float, utilisation: float,
                    sys_fraction: float = 0.08, wait_fraction: float = 0.0) -> None:
        """Advance the CPU time counters for ``dt_s`` of wall time.

        ``utilisation`` is the busy fraction across cores; of the busy
        share, ``sys_fraction`` is kernel time.  Interrupt and context-
        switch counters advance at activity-scaled rates.
        """
        if dt_s < 0:
            raise ValueError("negative interval")
        ticks = dt_s * self.USER_HZ * self.n_cores
        busy = ticks * utilisation
        wait = ticks * wait_fraction
        self.cpu.usr += busy * (1.0 - sys_fraction)
        self.cpu.sys += busy * sys_fraction
        self.cpu.wai += wait
        self.cpu.idl += max(ticks - busy - wait, 0.0)
        self.interrupts_total += int(dt_s * (250 + 4000 * utilisation))
        self.context_switches_total += int(dt_s * (500 + 9000 * utilisation))
        # Exponentially-smoothed load averages driven by the run queue.
        runnable = utilisation * self.n_cores
        self.load_1m += min(dt_s / 60.0, 1.0) * (runnable - self.load_1m)
        self.load_5m += min(dt_s / 300.0, 1.0) * (runnable - self.load_5m)
        self.load_15m += min(dt_s / 900.0, 1.0) * (runnable - self.load_15m)

    def update_memory(self, usage: Dict[str, int]) -> None:
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

    # -- kernel-formatted text renders ---------------------------------------
    def render_loadavg(self) -> str:
        """/proc/loadavg in kernel format."""
        return (f"{self.load_1m:.2f} {self.load_5m:.2f} {self.load_15m:.2f} "
                f"{self.procs_running}/{self.procs_new_total + 50} 1234\n")

    def render_stat(self) -> str:
        """/proc/stat's aggregate cpu line (ticks are integers)."""
        c = self.cpu
        return (f"cpu  {int(c.usr)} 0 {int(c.sys)} {int(c.idl)} {int(c.wai)} "
                f"0 0 {int(c.stl)} 0 0\n")

    def render_meminfo(self) -> str:
        """MemTotal/MemFree/Buffers/Cached lines of /proc/meminfo (kB)."""
        kb = 1024
        return (f"MemTotal:       {self.dram_bytes // kb} kB\n"
                f"MemFree:        {self.mem_free // kb} kB\n"
                f"Buffers:        {self.mem_buff // kb} kB\n"
                f"Cached:         {self.mem_cach // kb} kB\n")
