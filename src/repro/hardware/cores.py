"""The U74-MC core complex: four U74 application cores plus one S7 core.

Each :class:`U74Core` is a *cycle-approximate analytic* model: it does not
execute instructions, but it accounts for them.  A :class:`CoreActivity`
declares how many seconds of activity elapsed and with which
instructions-per-cycle and floating-point intensity; its counter
increments reach every core through :meth:`CoreComplex.advance` (busy
slices) or :meth:`CoreComplex.idle`, which sum the increments of a run of
back-to-back slices and apply them once per core with
:meth:`U74Core.advance`.  The architectural counters (CYCLE, INSTRET, plus
programmable HPM events) are what the monitoring stack later samples
through perf_events — exactly the path pmu_pub uses on the real machine
(§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.hardware.hpm import HPMUnit
from repro.hardware.specs import SoCSpec, U740_SPEC

__all__ = ["U74Core", "S7Core", "CoreComplex", "CoreActivity"]

#: (cycles, instructions, fp_ops, l2_miss, load_store) counter increments.
Counts = Tuple[int, int, int, int, int]


@dataclass(frozen=True)
class CoreActivity:
    """A slice of work executed on one core.

    Attributes
    ----------
    duration_s:
        Wall-clock seconds of activity.
    ipc:
        Attained instructions-per-cycle (the U74 is dual-issue, so the
        hardware ceiling is 2.0).
    flop_fraction:
        Fraction of retired instructions that are double-precision FLOPs.
    l2_miss_rate:
        L2 misses per retired instruction (drives DDR traffic and the
        ``ddr_mem`` power rail).
    utilisation:
        Busy fraction within ``duration_s`` (1.0 = fully busy).

    An activity is a value: every core of the complex runs the same
    slice, so :meth:`run_counts` works out its counter increments once
    for all of them.
    """

    duration_s: float
    ipc: float = 1.0
    flop_fraction: float = 0.0
    l2_miss_rate: float = 0.0
    utilisation: float = 1.0

    def __post_init__(self) -> None:
        # Every field is checked here, so every increment
        # :meth:`run_counts` derives is a non-negative integer and a core
        # applies all of them or none.
        if not self.duration_s >= 0:
            raise ValueError(f"negative duration {self.duration_s}")
        if not 0.0 <= self.utilisation <= 1.0:
            raise ValueError(f"utilisation {self.utilisation} outside [0, 1]")
        if not self.ipc >= 0:
            raise ValueError(f"negative ipc {self.ipc}")
        if not 0.0 <= self.flop_fraction <= 1.0:
            raise ValueError(
                f"flop_fraction {self.flop_fraction} outside [0, 1]")
        if not self.l2_miss_rate >= 0:
            raise ValueError(f"negative l2_miss_rate {self.l2_miss_rate}")

    def run_counts(self, ipcs: Iterable[float], clock_hz: float,
                   max_ipc: float) -> Counts:
        """The summed increments of back-to-back slices, one per entry of
        ``ipcs``, that differ from this activity only in their
        instructions-per-cycle.

        A slice of a core clocked at ``clock_hz`` counts every cycle of
        ``duration_s``; its busy share retires ``min(ipc, max_ipc)``
        instructions per cycle, fixed shares of which are FLOPs, L2
        misses and loads/stores.  The integers sum the same in any
        grouping.
        """
        busy_s = self.duration_s * self.utilisation
        cycles = int(clock_hz * self.duration_s)
        busy_cycles = int(clock_hz * busy_s)
        flop_fraction, l2_miss_rate = self.flop_fraction, self.l2_miss_rate
        slices = instructions = fp_ops = l2_miss = load_store = 0
        for ipc in ipcs:
            if not ipc >= 0:  # also rejects NaN
                raise ValueError(f"negative ipc {ipc}")
            retired = int(busy_cycles * min(ipc, max_ipc))
            instructions += retired
            fp_ops += int(retired * flop_fraction)
            l2_miss += int(retired * l2_miss_rate)
            load_store += int(retired * 0.3)
            slices += 1
        return (slices * cycles, instructions, fp_ops, l2_miss, load_store)


class U74Core:
    """One 64-bit U74 application core.

    The core tracks architectural counters.  It supports the three RISC-V
    privilege modes only insofar as the counters are concerned (user-mode
    sampling reads the same CSRs the kernel virtualises through perf).
    """

    #: Hardware issue ceiling of the dual-issue in-order pipeline.
    MAX_IPC = 2.0

    def __init__(self, core_id: int, soc: SoCSpec = U740_SPEC) -> None:
        self.core_id = core_id
        self.soc = soc
        self.hpm = HPMUnit(core_id=core_id)
        self._clock_on = False

    # -- lifecycle ----------------------------------------------------------
    def power_on(self) -> None:
        """Apply power; the core holds in reset until the clock starts."""
        self._clock_on = False

    def start_clock(self) -> None:
        """PLL locked, clock propagating (boot region R2 of Fig. 4)."""
        self._clock_on = True

    @property
    def clock_running(self) -> bool:
        """Whether the core clock is active."""
        return self._clock_on

    # -- accounting ----------------------------------------------------------
    def advance(self, counts: Counts) -> None:
        """Account for executed work: add ``counts`` to the counters.

        ``counts`` is the :meth:`CoreActivity.run_counts` sum of one or
        more back-to-back slices; integer addition makes one sum the same
        as one addition per slice.  Updates CYCLE, INSTRET and the
        programmable HPM counters; the programmable events are discarded
        while the bank is disabled, mirroring hardware counters that are
        simply not counting.  The clock must be running;
        calling this on a gated core is a modelling bug.  The increments
        need no check: ``CoreActivity`` validates every field, so each is
        a non-negative integer.
        """
        if not self._clock_on:
            raise RuntimeError(f"core {self.core_id}: advance() with clock gated")
        cycles, instructions, fp_ops, l2_miss, load_store = counts
        hpm = self.hpm
        hpm.cycle += cycles
        hpm.instret += instructions
        if hpm._programmable_enabled:
            events = hpm._events
            events["fp_ops"] += fp_ops
            events["l2_miss"] += l2_miss
            events["load_store"] += load_store

    def __repr__(self) -> str:
        return f"U74Core(id={self.core_id}, instret={self.hpm.instret})"


class S7Core:
    """The S7 monitor core of the U74-MC complex.

    The S7 runs machine-mode firmware only; it never appears in the OS
    topology and contributes a small fixed share of core-rail power.  It is
    modelled for completeness of the core-complex inventory (§III).
    """

    def __init__(self) -> None:
        self.core_id = -1
        self._clock_on = False

    def start_clock(self) -> None:
        """Clock the monitor core (happens together with the U74s)."""
        self._clock_on = True

    @property
    def clock_running(self) -> bool:
        """Whether the monitor core is clocked."""
        return self._clock_on


class CoreComplex:
    """The heterogeneous U74-MC complex: 4× U74 + 1× S7.

    Provides the views the monitoring plugins and benchmark validation
    consume: per-core counter access and aggregate retired instructions.
    Every application core runs the same slices, so the complex works out
    a run's increments once and hands them to each core.
    """

    def __init__(self, soc: SoCSpec = U740_SPEC) -> None:
        self.soc = soc
        self.cores = [U74Core(core_id=i, soc=soc) for i in range(soc.n_cores)]
        self.monitor_core = S7Core()

    def __iter__(self):
        return iter(self.cores)

    def __len__(self) -> int:
        return len(self.cores)

    def start_clocks(self) -> None:
        """Bring the whole complex out of reset (PLL lock moment)."""
        for core in self.cores:
            core.start_clock()
        self.monitor_core.start_clock()

    @property
    def clock_running(self) -> bool:
        """True once the complex has been clocked."""
        return self.monitor_core.clock_running

    def total_instructions(self) -> int:
        """Sum of INSTRET over all application cores."""
        return sum(c.hpm.instret for c in self.cores)

    def advance(self, activity: CoreActivity, ipcs: Iterable[float]) -> None:
        """Run every application core through back-to-back busy slices:
        ``activity`` at each of ``ipcs`` in turn
        (:meth:`CoreActivity.run_counts`), summed, then applied once per
        core."""
        counts = activity.run_counts(ipcs, self.soc.clock_hz, U74Core.MAX_IPC)
        for core in self.cores:
            core.advance(counts)

    def idle(self, duration_s: float, ticks: int) -> None:
        """Advance every core through ``ticks`` OS-idle intervals of
        ``duration_s`` each."""
        # OS-idle time: cycles tick, few instructions retire.
        idle = CoreActivity(duration_s=duration_s, ipc=0.02, utilisation=0.01)
        counts = tuple(n * ticks for n in idle.run_counts(
            (idle.ipc,), self.soc.clock_hz, U74Core.MAX_IPC))
        for core in self.cores:
            core.advance(counts)
