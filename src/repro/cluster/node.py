"""A Monte Cimone compute node: board + OS lifecycle + measurement views.

The node ties every substrate together:

* the :class:`~repro.hardware.board.HiFiveUnmatched` board;
* an OS state machine following the boot regions of Fig. 4
  (OFF → R1 power-on → R2 bootloader → R3 OS-running);
* a workload execution path that drives core counters, procfs statistics,
  DDR activity and the power rails coherently (the SLURM controller runs
  every job through it, a slice at a time);
* a thermal attachment point (slot in an enclosure) with the
  over-temperature shutdown that node 7 suffered in Fig. 6;
* the procfs/sysfs views ExaMon's plugins sample.

The node is engine-agnostic for unit testing (every transition is a plain
method); :meth:`ComputeNode.boot_process` wraps the transitions into a
simulation process with the Fig. 4 timings.

Settle-on-read accounting
-------------------------
The node ticks once per simulated second, but the only state read every
second is the SoC temperature (the thermal watchdog, the DTM governor,
the service cool-down poll).  A tick (:meth:`ComputeNode.advance`)
therefore does only the hot part: it moves the node clock, steps the SoC
RC and its ``cpu_temp`` sensor, and records ``dt`` in the pending run, a
run-length list of ``[dt, ticks]`` pairs.  Everything else a tick
changes is settled state: the HPM counters, procfs CPU, load and
interrupt accounting, the motherboard and NVMe RCs and sensors, the
drive temperature and the nine rail energy integrals.
:meth:`ComputeNode.settle` replays the pending run into it, tick by tick
with the operands each tick had, so the settled state is bit-for-bit
the state of ticking everything every second:

* every input of a tick other than ``dt`` and the clock (phase, profile,
  clock throttle, rail powers, enclosure, memory, counter enables,
  sensor faults) changes only in a transition, and every transition
  settles first;
* each tick's clock value is rebuilt by the same ``now += dt`` chain the
  ticks made, never by multiplication;
* every reader of settled state settles first: ``PmuPubPlugin.sample``,
  ``StatsPubPlugin.sample``, the energy accountant's snapshots, the
  report's instruction counts and the chaos sensor injectors.
"""

from __future__ import annotations

from enum import Enum
from itertools import accumulate, repeat
from typing import Dict, Generator, List, Optional

from repro.events.engine import Engine, Event
from repro.hardware.board import HiFiveUnmatched
from repro.hardware.cores import CoreActivity
from repro.power.boot import BOOT_PHASES
from repro.power.traces import activity_modulation
from repro.power.model import (
    IDLE_PROFILE,
    NodePhase,
    RailPowerModel,
    WorkloadProfile,
)
from repro.obs.trace import span_of
from repro.cluster.procfs import ProcFS
from repro.thermal.enclosure import Enclosure
from repro.thermal.model import NodeThermalModel

__all__ = ["ComputeNode", "NodeState"]


class NodeState(Enum):
    """Administrative node state, SLURM-style."""

    OFF = "off"
    BOOTING = "booting"
    IDLE = "idle"
    RUNNING = "running"
    TRIPPED = "tripped"   # emergency thermal shutdown


class ComputeNode:
    """One of the eight Monte Cimone compute nodes."""

    #: Boot regions (and their durations) from the Fig. 4 timeline.
    R1_PHASE = next(p for p in BOOT_PHASES if p.name == "R1")
    R2_PHASE = next(p for p in BOOT_PHASES if p.name == "R2")
    R1_DURATION_S = R1_PHASE.duration_s
    R2_DURATION_S = R2_PHASE.duration_s
    #: Ticks :meth:`settle` replays at once; bounds the clock values it
    #: holds.
    SETTLE_BLOCK = 4096

    def __init__(self, hostname: str, with_infiniband: bool = False,
                 patched_uboot: bool = True) -> None:
        self.hostname = hostname
        self.board = HiFiveUnmatched(with_infiniband=with_infiniband)
        self.patched_uboot = patched_uboot
        self.power_model = RailPowerModel()
        self.procfs = ProcFS(n_cores=self.board.n_cores,
                             dram_bytes=self.board.memory.capacity_bytes)
        self.state = NodeState.OFF
        self.phase = NodePhase.OFF
        self.active_profile: WorkloadProfile = IDLE_PROFILE
        self.thermal: Optional[NodeThermalModel] = None
        #: Clock-throttle factor set by dynamic thermal management
        #: (1.0 = full 1.2 GHz; §VI future-work feature).
        self.frequency_scale = 1.0
        self._now_s = 0.0
        #: Ticks taken but not yet settled, as ``[dt, ticks]`` runs.
        self._pending: List[list] = []
        #: The node clock when the first pending tick was taken.
        self._settled_s = 0.0
        #: (phase, active_profile, frequency_scale) of ``_rail_powers``,
        #: the last ``power_model.rail_powers_w`` result; filled on first use.
        self._rail_key: Optional[tuple] = None
        self._rail_powers: Dict[str, float] = {}

    # -- thermal attachment ---------------------------------------------------
    def attach_thermal(self, enclosure: Enclosure, slot: int) -> None:
        """Place the node in an enclosure slot; hwmon starts tracking."""
        self.settle()
        self.thermal = NodeThermalModel(enclosure, slot, hwmon=self.board.hwmon)

    def set_enclosure(self, enclosure: Enclosure) -> None:
        """Apply a mechanical change to the node's slot (§V-C)."""
        self.settle()
        self.thermal.set_enclosure(enclosure)

    # -- state transitions (plain methods, unit-testable) ----------------------
    def power_on(self, now_s: float = 0.0) -> None:
        """Apply power: enter boot region R1 (clock gated, leakage only)."""
        if self.state not in (NodeState.OFF, NodeState.TRIPPED):
            raise RuntimeError(f"{self.hostname}: power_on from {self.state}")
        self.settle()
        self.state = NodeState.BOOTING
        self.phase = NodePhase.R1_POWER_ON
        self._now_s = now_s
        for core in self.board.cores:
            core.power_on()
        self._apply_power()

    def start_bootloader(self, now_s: float) -> None:
        """PLL lock: enter R2; U-Boot runs, DDR trains, PCIe links train."""
        if self.phase is not NodePhase.R1_POWER_ON:
            raise RuntimeError(f"{self.hostname}: bootloader from {self.phase}")
        self.settle()
        self.phase = NodePhase.R2_BOOTLOADER
        self._now_s = now_s
        self.board.cores.start_clocks()
        self.board.memory.initialise()
        if self.patched_uboot:
            self.board.enable_hpm_counters()
        self._apply_power()

    def finish_boot(self, now_s: float) -> None:
        """OS handoff: enter R3; services and network come up."""
        if self.phase is not NodePhase.R2_BOOTLOADER:
            raise RuntimeError(f"{self.hostname}: OS boot from {self.phase}")
        self.settle()
        self.phase = NodePhase.R3_OS
        self.state = NodeState.IDLE
        self._now_s = now_s
        if self.board.infiniband is not None:
            self.board.infiniband.load_driver()
            self.board.infiniband.activate_link()
        self.procfs.procs_new_total += 80  # init + daemons
        self._apply_power()

    def emergency_shutdown(self, now_s: float) -> None:
        """Over-temperature trip: the node stops executing (Fig. 6)."""
        self.settle()
        self.state = NodeState.TRIPPED
        self.phase = NodePhase.OFF
        self.active_profile = IDLE_PROFILE
        self._now_s = max(self._now_s, now_s)
        # Power loss: DRAM contents are gone.
        self.board.memory.release("workload")
        self._apply_power()

    # -- workload execution -----------------------------------------------------
    def begin_workload(self, profile: WorkloadProfile, now_s: float) -> None:
        """Start executing a workload with the given activity profile."""
        if self.state is not NodeState.IDLE:
            raise RuntimeError(
                f"{self.hostname}: cannot start workload while {self.state}")
        self.settle()
        # The one step that can refuse (DDR not trained, out of memory)
        # goes first, so a refusal changes nothing.
        if profile.mem_fraction > 0:
            self.board.memory.allocate(
                "workload",
                int(profile.mem_fraction * self.board.memory.capacity_bytes))
        self.state = NodeState.RUNNING
        self.active_profile = profile
        self._now_s = max(self._now_s, now_s)
        self.procfs.procs_new_total += 1
        self.procfs.procs_running = 1 + self.board.n_cores
        self._apply_power()

    def end_workload(self, now_s: float) -> None:
        """Workload finished: back to idle."""
        if self.state is NodeState.TRIPPED:
            return
        self.settle()
        self.state = NodeState.IDLE
        self.active_profile = IDLE_PROFILE
        self._now_s = max(self._now_s, now_s)
        self.procfs.procs_running = 1
        self.board.memory.release("workload")
        self.procfs.update_memory(self.board.memory.usage())
        self._apply_power()

    def sync_to(self, now_s: float) -> None:
        """Advance the node's accounting up to absolute time ``now_s``.

        A no-op when the node is already at (or past) ``now_s`` — this is
        what makes concurrent drivers (scheduler slices, the cluster
        watchdog) compose without double-counting time.
        """
        dt = now_s - self._now_s
        if dt > 0:
            self.advance(dt)

    def advance(self, dt_s: float) -> None:
        """Advance the node by ``dt_s`` of simulated time: the hot part.

        Moves the node clock, records ``dt_s`` in the pending run and
        steps the SoC temperature under the rails' board power; the rest
        of the tick waits for :meth:`settle`.
        """
        if not dt_s >= 0:  # also rejects NaN
            raise ValueError(f"negative time step {dt_s}")
        pending = self._pending
        if not pending:
            self._settled_s = self._now_s
            pending.append([dt_s, 1])
        elif pending[-1][0] == dt_s:
            pending[-1][1] += 1
        else:
            pending.append([dt_s, 1])
        self._now_s += dt_s
        thermal = self.thermal
        if thermal is not None:
            # Powered-off boards cool toward ambient (rails read zero).
            thermal.step(dt_s, self.board.rails.total_w())

    def settle(self) -> None:
        """Replay the pending ticks into the settled state.

        Each run of equal ticks is replayed in blocks; each tick has the
        clock value the ``now += dt`` chain gave it when it was taken.
        """
        pending = self._pending
        if not pending:
            return
        self._pending = []
        now_s = self._settled_s
        for dt_s, ticks in pending:
            while ticks:
                block = min(ticks, self.SETTLE_BLOCK)
                ticks -= block
                times = list(accumulate(repeat(dt_s, block), initial=now_s))
                del times[0]
                self._replay(dt_s, times)
                now_s = times[-1]

    def _replay(self, dt_s: float, times: List[float]) -> None:
        """The settled part of the ticks of ``dt_s`` ending at ``times``."""
        ticks = len(times)
        profile = self.active_profile
        board = self.board
        if self.phase is NodePhase.R3_OS:
            if profile.utilisation > 0:
                # Clock throttling slows instruction throughput linearly;
                # cycle counts also advance at the reduced clock, so ipc
                # is unchanged but effective throughput drops.
                # Each tick's ipc follows the workload's phase structure.
                ipc, name = profile.ipc, profile.name
                board.cores.advance(
                    CoreActivity(
                        duration_s=dt_s * self.frequency_scale, ipc=ipc,
                        flop_fraction=profile.flop_fraction,
                        l2_miss_rate=0.002 + 0.02 * profile.ddr_data_activity,
                        utilisation=profile.utilisation),
                    [max(0.0, min(ipc * activity_modulation(name, now_s),
                                  2.0)) for now_s in times])
            else:
                board.cores.idle(dt_s, ticks)
            self.procfs.account_cpu(dt_s, ticks, profile.utilisation)
            self.procfs.update_memory(board.memory.usage())
        thermal = self.thermal
        if thermal is not None:
            thermal.settle(dt_s, ticks, board.rails.total_w())
            # The drive reports its RC temperature; the board's sync is the
            # one writer of hwmon0.
            board.nvme.temperature_c = thermal.nvme.temperature_c
            board.sync_nvme_temperature()
        board.rails.hold(self._current_rail_powers(), times)

    # -- measurements -------------------------------------------------------------
    def total_power_w(self) -> float:
        """Instantaneous board power from the rail harness."""
        return self.board.rails.total_w()

    def cpu_temperature_c(self) -> float:
        """The SoC hwmon reading."""
        return self.board.hwmon.read_celsius("cpu_temp")

    def set_frequency_scale(self, scale: float, now_s: float) -> None:
        """Apply a clock-throttle factor (dynamic thermal management)."""
        if not 0.1 <= scale <= 1.0:
            raise ValueError(f"frequency scale {scale} outside [0.1, 1.0]")
        self.settle()
        self.frequency_scale = scale
        self._now_s = max(self._now_s, now_s)
        self._apply_power()

    def _current_rail_powers(self) -> Dict[str, float]:
        # The rail powers are a function of the key alone, so the last
        # evaluation is reused until a transition changes the key.
        key = (self.phase, self.active_profile, self.frequency_scale)
        if key != self._rail_key:
            self._rail_powers = self.power_model.rail_powers_w(
                self.phase, self.active_profile,
                frequency_scale=self.frequency_scale)
            self._rail_key = key
        return self._rail_powers

    def _apply_power(self) -> None:
        """End a transition: set the rails at the node clock."""
        self.board.rails.set_powers(self._current_rail_powers(), self._now_s)

    # -- simulation processes -------------------------------------------------------
    def boot_process(self, engine: Engine) -> Generator[Event, None, None]:
        """Boot the node on the simulation engine (Fig. 4 timings).

        A fault injected mid-boot (emergency shutdown during R1/R2) aborts
        the sequence cleanly: the process returns with the node TRIPPED
        instead of raising out of a phase transition — the same "stopped
        executing" outcome a real board shows when it browns out while
        booting.
        """
        self.power_on(engine.now)
        with span_of(engine, self.R1_PHASE.span_name, "boot",
                     node=self.hostname, **self.R1_PHASE.span_attributes()):
            yield engine.timeout(self.R1_DURATION_S)
        if self.state is NodeState.TRIPPED:
            return
        self.start_bootloader(engine.now)
        with span_of(engine, self.R2_PHASE.span_name, "boot",
                     node=self.hostname, **self.R2_PHASE.span_attributes()):
            yield engine.timeout(self.R2_DURATION_S)
        if self.state is NodeState.TRIPPED:
            return
        self.finish_boot(engine.now)

