"""The U74-MC core complex: four U74 application cores plus one S7 core.

Each :class:`U74Core` is a *cycle-approximate analytic* model: it does not
execute instructions, but it accounts for them.  Workload models (HPL,
STREAM, QE-LAX) drive cores through :meth:`U74Core.advance`, declaring how
many seconds of activity elapsed and with which instructions-per-cycle and
floating-point intensity; the core updates its architectural counters
(CYCLE, INSTRET, plus programmable HPM events) that the monitoring stack
later samples through perf_events — exactly the path pmu_pub uses on the
real machine (§IV-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from repro.hardware.hpm import HPMUnit
from repro.hardware.specs import SoCSpec, U740_SPEC

__all__ = ["U74Core", "S7Core", "CoreComplex", "CoreActivity"]


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

    An activity is a value: the node hands one instance to every core of
    the complex, every idle core shares one per interval, and
    :meth:`counts` works out the counter increments on first use and
    reuses them for the rest.
    """

    duration_s: float
    ipc: float = 1.0
    flop_fraction: float = 0.0
    l2_miss_rate: float = 0.0
    utilisation: float = 1.0
    #: (clock_hz, max_ipc, counts) of the last :meth:`counts` call; not a
    #: field, so equality, hashing and ``repr`` ignore it.
    _counts_memo = None

    def __post_init__(self) -> None:
        # Every field is checked here, so every increment :meth:`counts`
        # derives is a non-negative integer and a core applies all of them
        # or none.
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

    def counts(self, clock_hz: float,
               max_ipc: float) -> Tuple[int, int, int, int, int]:
        """(cycles, instructions, fp_ops, l2_miss, load_store) increments.

        The increments of a core clocked at ``clock_hz`` whose issue rate
        is capped at ``max_ipc``.  The last result is kept, keyed on those
        two arguments.
        """
        memo = self._counts_memo
        if memo is not None and memo[0] == clock_hz and memo[1] == max_ipc:
            return memo[2]
        busy_s = self.duration_s * self.utilisation
        cycles = int(clock_hz * self.duration_s)
        busy_cycles = int(clock_hz * busy_s)
        instructions = int(busy_cycles * min(self.ipc, max_ipc))
        counts = (cycles, instructions,
                  int(instructions * self.flop_fraction),
                  int(instructions * self.l2_miss_rate),
                  int(instructions * 0.3))
        # The memo is not a field; a frozen dataclass sets it this way.
        object.__setattr__(self, "_counts_memo", (clock_hz, max_ipc, counts))
        return counts


@lru_cache(maxsize=8)
def _idle_activity(duration_s: float) -> CoreActivity:
    """OS-idle time: cycles tick, few instructions retire.

    Activities are immutable, so every core idling for the same interval
    shares one instance (ticks are almost always one simulated second).
    """
    return CoreActivity(duration_s=duration_s, ipc=0.02, utilisation=0.01)


class U74Core:
    """One 64-bit U74 application core.

    The core tracks architectural counters and an activity level that the
    power model converts into rail currents.  It supports the three RISC-V
    privilege modes only insofar as the counters are concerned (user-mode
    sampling reads the same CSRs the kernel virtualises through perf).
    """

    #: Hardware issue ceiling of the dual-issue in-order pipeline.
    MAX_IPC = 2.0

    def __init__(self, core_id: int, soc: SoCSpec = U740_SPEC) -> None:
        self.core_id = core_id
        self.soc = soc
        self.hpm = HPMUnit(core_id=core_id)
        self._current_utilisation = 0.0
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
    @property
    def utilisation(self) -> float:
        """Instantaneous busy fraction, as the OS would report it."""
        return self._current_utilisation

    def advance(self, activity: CoreActivity) -> None:
        """Account for a slice of executed work.

        Updates CYCLE, INSTRET and the programmable HPM counters; the
        programmable events are discarded while the bank is disabled,
        mirroring hardware counters that are simply not counting.  The
        clock must be running; calling this on a gated core is a modelling
        bug.  The increments need no check: ``CoreActivity`` validates
        every field, so each is a non-negative integer.
        """
        if not self._clock_on:
            raise RuntimeError(f"core {self.core_id}: advance() with clock gated")
        cycles, instructions, fp_ops, l2_miss, load_store = activity.counts(
            self.soc.clock_hz, self.MAX_IPC)
        hpm = self.hpm
        hpm.cycle += cycles
        hpm.instret += instructions
        if hpm._programmable_enabled:
            events = hpm._events
            events["fp_ops"] += fp_ops
            events["l2_miss"] += l2_miss
            events["load_store"] += load_store
        self._current_utilisation = activity.utilisation

    def idle(self, duration_s: float) -> None:
        """Account for OS-idle time (cycles tick, few instructions retire)."""
        self.advance(_idle_activity(duration_s))
        self._current_utilisation = 0.0

    def __repr__(self) -> str:
        return f"U74Core(id={self.core_id}, util={self._current_utilisation:.2f})"


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

    Provides aggregate views the monitoring plugins and the power model
    consume: total utilisation, per-core counter access, aggregate retired
    FLOPs (used by benchmark validation).
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

    @property
    def utilisation(self) -> float:
        """Mean busy fraction across application cores."""
        return sum(c.utilisation for c in self.cores) / len(self.cores)

    def total_instructions(self) -> int:
        """Sum of INSTRET over all application cores."""
        return sum(c.hpm.instret for c in self.cores)

    def idle(self, duration_s: float) -> None:
        """Advance every core through an OS-idle interval.

        Does what :meth:`U74Core.idle` does on each core, with the shared
        idle activity looked up once for the whole complex.
        """
        activity = _idle_activity(duration_s)
        for core in self.cores:
            core.advance(activity)
            core._current_utilisation = 0.0
