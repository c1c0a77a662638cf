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
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Generator, Optional

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
        #: (phase, active_profile, frequency_scale) of ``_rail_powers``,
        #: the last ``power_model.rail_powers_w`` result; filled on first use.
        self._rail_key: Optional[tuple] = None
        self._rail_powers: Dict[str, float] = {}

    # -- thermal attachment ---------------------------------------------------
    def attach_thermal(self, enclosure: Enclosure, slot: int) -> None:
        """Place the node in an enclosure slot; hwmon starts tracking."""
        self.thermal = NodeThermalModel(enclosure, slot, hwmon=self.board.hwmon)

    # -- state transitions (plain methods, unit-testable) ----------------------
    def power_on(self, now_s: float = 0.0) -> None:
        """Apply power: enter boot region R1 (clock gated, leakage only)."""
        if self.state not in (NodeState.OFF, NodeState.TRIPPED):
            raise RuntimeError(f"{self.hostname}: power_on from {self.state}")
        self.state = NodeState.BOOTING
        self.phase = NodePhase.R1_POWER_ON
        self._now_s = now_s
        for core in self.board.cores:
            core.power_on()
        self._apply_power(now_s)

    def start_bootloader(self, now_s: float) -> None:
        """PLL lock: enter R2; U-Boot runs, DDR trains, PCIe links train."""
        if self.phase is not NodePhase.R1_POWER_ON:
            raise RuntimeError(f"{self.hostname}: bootloader from {self.phase}")
        self.phase = NodePhase.R2_BOOTLOADER
        self._now_s = now_s
        self.board.cores.start_clocks()
        self.board.memory.initialise()
        if self.patched_uboot:
            self.board.enable_hpm_counters()
        self._apply_power(now_s)

    def finish_boot(self, now_s: float) -> None:
        """OS handoff: enter R3; services and network come up."""
        if self.phase is not NodePhase.R2_BOOTLOADER:
            raise RuntimeError(f"{self.hostname}: OS boot from {self.phase}")
        self.phase = NodePhase.R3_OS
        self.state = NodeState.IDLE
        self._now_s = now_s
        if self.board.infiniband is not None:
            self.board.infiniband.load_driver()
            self.board.infiniband.activate_link()
        self.procfs.procs_new_total += 80  # init + daemons
        self._apply_power(now_s)

    def emergency_shutdown(self, now_s: float) -> None:
        """Over-temperature trip: the node stops executing (Fig. 6)."""
        self.state = NodeState.TRIPPED
        self.phase = NodePhase.OFF
        self.active_profile = IDLE_PROFILE
        self._now_s = max(self._now_s, now_s)
        # Power loss: DRAM contents are gone.
        self.board.memory.release("workload")
        self._apply_power(self._now_s)

    # -- workload execution -----------------------------------------------------
    def begin_workload(self, profile: WorkloadProfile, now_s: float) -> None:
        """Start executing a workload with the given activity profile."""
        if self.state is not NodeState.IDLE:
            raise RuntimeError(
                f"{self.hostname}: cannot start workload while {self.state}")
        self.state = NodeState.RUNNING
        self.active_profile = profile
        self._now_s = max(self._now_s, now_s)
        self.procfs.procs_new_total += 1
        self.procfs.procs_running = 1 + self.board.n_cores
        if profile.mem_fraction > 0:
            self.board.memory.allocate(
                "workload",
                int(profile.mem_fraction * self.board.memory.capacity_bytes))
        self._apply_power(self._now_s)

    def end_workload(self, now_s: float) -> None:
        """Workload finished: back to idle."""
        if self.state is NodeState.TRIPPED:
            return
        self.state = NodeState.IDLE
        self.active_profile = IDLE_PROFILE
        self._now_s = max(self._now_s, now_s)
        self.procfs.procs_running = 1
        self.board.memory.release("workload")
        self.procfs.update_memory(self.board.memory.usage())
        self._apply_power(self._now_s)

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
        """Advance the node's accounting by ``dt_s`` of simulated time.

        Drives core counters, procfs statistics, thermal state and the
        power-rail energy integrals coherently with the active profile.
        """
        if not dt_s >= 0:  # also rejects NaN
            raise ValueError(f"negative time step {dt_s}")
        self._now_s += dt_s
        profile = self.active_profile
        board = self.board
        if self.phase is NodePhase.R3_OS:
            if profile.utilisation > 0:
                modulation = activity_modulation(profile.name, self._now_s)
                # Clock throttling slows instruction throughput linearly;
                # cycle counts also advance at the reduced clock, so ipc is
                # unchanged but effective throughput drops.
                activity = CoreActivity(
                    duration_s=dt_s * self.frequency_scale,
                    ipc=max(0.0, min(profile.ipc * modulation, 2.0)),
                    flop_fraction=profile.flop_fraction,
                    l2_miss_rate=0.002 + 0.02 * profile.ddr_data_activity,
                    utilisation=profile.utilisation)
                for core in board.cores.cores:
                    core.advance(activity)
            else:
                board.cores.idle(dt_s)
            self.procfs.account_cpu(dt_s, profile.utilisation)
            self.procfs.update_memory(board.memory.usage())
        if self.thermal is not None:
            # Powered-off boards cool toward ambient (rails read zero).
            self.thermal.step(dt_s, self.total_power_w())
            # The drive reports its RC temperature; the board's sync is the
            # one writer of hwmon0.
            board.nvme.temperature_c = self.thermal.nvme.temperature_c
            board.sync_nvme_temperature()
        self._apply_power(self._now_s)

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
        self.frequency_scale = scale
        self._now_s = max(self._now_s, now_s)
        self._apply_power(self._now_s)

    def _apply_power(self, now_s: float) -> None:
        # The rail powers are a function of the key alone, so the last
        # evaluation is reused until a transition changes the key.
        key = (self.phase, self.active_profile, self.frequency_scale)
        if key != self._rail_key:
            self._rail_powers = self.power_model.rail_powers_w(
                self.phase, self.active_profile,
                frequency_scale=self.frequency_scale)
            self._rail_key = key
        self.board.rails.set_powers(self._rail_powers, now_s)

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

