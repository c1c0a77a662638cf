"""Each value the node tick reuses is keyed on every input it depends on.

The per-second tick keeps three values until an input changes: the RC
decay factor ``exp(-dt/τ)`` (``ThermalRC.step``), the procfs per-interval
increments (``ProcFS.account_cpu``) and the shared idle activity
(``CoreComplex.idle``).  These tests drive a node through the transitions
that change those inputs and compare every tick, exactly, against the
formulas evaluated afresh:

* the §V-C mitigation applied mid-run, which changes R and so τ;
* a DTM ``set_frequency_scale``, which changes the board power;
* a job's fractional last slice and the fractional idle tick after it;
* an idle → busy → idle utilisation change;
* and, on a bare ``ProcFS``, each of ``account_cpu``'s four arguments
  changed on its own.
"""

import math

from repro.cluster.node import ComputeNode
from repro.cluster.procfs import ProcFS
from repro.events.engine import Engine
from repro.hardware.cores import CoreActivity, U74Core
from repro.power.model import HPL_PROFILE, NodePhase
from repro.thermal.enclosure import Enclosure, EnclosureConfig
from repro.thermal.model import NodeThermalModel as Model
from tests.test_slurm import make_controller

#: A centre slot: the lid adds resistance there, so the mitigation moves R.
SLOT = 4
N_CORES = 4


def rc_step(temperature, dt_s, power_w, ambient_c, r, c):
    """The exact-exponential RC update, written out."""
    target = ambient_c + power_w * r
    return target + (temperature - target) * math.exp(-dt_s / (r * c))


class ProcReference:
    """``ProcFS.account_cpu``'s accumulations, evaluated afresh per call."""

    def __init__(self):
        self.usr = self.sys = self.wai = self.idl = 0.0
        self.load_1m = self.load_5m = self.load_15m = 0.0
        self.interrupts = self.context_switches = 0

    def account(self, dt_s, utilisation, sys_fraction=0.08, wait_fraction=0.0):
        ticks = dt_s * ProcFS.USER_HZ * N_CORES
        busy = ticks * utilisation
        wait = ticks * wait_fraction
        self.usr += busy * (1.0 - sys_fraction)
        self.sys += busy * sys_fraction
        self.wai += wait
        self.idl += max(ticks - busy - wait, 0.0)
        self.interrupts += int(dt_s * (250 + 4000 * utilisation))
        self.context_switches += int(dt_s * (500 + 9000 * utilisation))
        runnable = utilisation * N_CORES
        self.load_1m += min(dt_s / 60.0, 1.0) * (runnable - self.load_1m)
        self.load_5m += min(dt_s / 300.0, 1.0) * (runnable - self.load_5m)
        self.load_15m += min(dt_s / 900.0, 1.0) * (runnable - self.load_15m)

    def state(self):
        return (self.usr, self.sys, self.wai, self.idl, self.interrupts,
                self.context_switches, self.load_1m, self.load_5m,
                self.load_15m)


def procfs_state(procfs):
    cpu = procfs.cpu
    return (cpu.usr, cpu.sys, cpu.wai, cpu.idl, procfs.interrupts_total,
            procfs.context_switches_total, procfs.load_1m, procfs.load_5m,
            procfs.load_15m)


class TickReference:
    """Wraps ``node.advance`` so every tick is checked against the formulas.

    The expected values are computed from the inputs the tick sees (the
    enclosure's R and ambient, the rails' board power, the profile's
    utilisation) before the node advances, then compared exactly after
    the node settles the tick.
    """

    def __init__(self, node):
        self.node = node
        thermal = node.thermal
        self.temperatures = [thermal.soc.temperature_c,
                             thermal.motherboard.temperature_c,
                             thermal.nvme.temperature_c]
        self.procfs = ProcReference()
        assert procfs_state(node.procfs) == self.procfs.state()
        self.ticks = 0
        self.idle_ticks = 0
        self._advance = node.advance
        node.advance = self.advance

    def advance(self, dt_s):
        node = self.node
        enclosure = node.thermal.enclosure
        ambient = enclosure.local_ambient(SLOT)
        r = enclosure.thermal_resistance(SLOT)
        power = node.total_power_w()
        soc, mb, nvme = self.temperatures
        soc = rc_step(soc, dt_s, power, ambient, r, Model.SOC_CAPACITANCE)
        mb = rc_step(mb, dt_s, power * Model.MB_HEAT_FRACTION, ambient,
                     r * Model.MB_RESISTANCE_FACTOR, Model.MB_CAPACITANCE)
        nvme = rc_step(nvme, dt_s, Model.NVME_POWER_W, 0.5 * (ambient + mb),
                       Model.NVME_RESISTANCE, Model.NVME_CAPACITANCE)
        self.temperatures = [soc, mb, nvme]
        running_os = node.phase is NodePhase.R3_OS
        utilisation = node.active_profile.utilisation
        idle = running_os and utilisation == 0
        if running_os:
            self.procfs.account(dt_s, utilisation)
        before = [(core.hpm.cycle, core.hpm.instret) for core in node.board.cores]

        self._advance(dt_s)
        node.settle()

        thermal = node.thermal
        assert [thermal.soc.temperature_c, thermal.motherboard.temperature_c,
                thermal.nvme.temperature_c] == self.temperatures
        assert procfs_state(node.procfs) == self.procfs.state()
        if idle:
            # A fresh activity, so nothing it computes is reused.
            cycles, instructions, *_ = CoreActivity(
                duration_s=dt_s, ipc=0.02, utilisation=0.01).counts(
                    node.board.cores.soc.clock_hz, U74Core.MAX_IPC)
            for core, (cycle0, instret0) in zip(node.board.cores, before):
                assert core.hpm.cycle - cycle0 == cycles
                assert core.hpm.instret - instret0 == instructions
            self.idle_ticks += 1
        self.ticks += 1


def booted(config):
    node = ComputeNode(hostname="memo-node")
    node.attach_thermal(Enclosure(config), slot=SLOT)
    node.power_on(0.0)
    node.start_bootloader(0.0)
    node.finish_boot(0.0)
    return node


def test_mitigation_mid_run_changes_the_decay():
    node = booted(EnclosureConfig.original())
    reference = TickReference(node)
    node.begin_workload(HPL_PROFILE, 0.0)
    for _ in range(30):
        node.advance(1.0)
    r_before = node.thermal.soc.resistance_k_per_w
    node.set_enclosure(Enclosure(EnclosureConfig.mitigated()))
    assert node.thermal.soc.resistance_k_per_w != r_before
    for _ in range(30):
        node.advance(1.0)
    assert reference.ticks == 60


def test_dtm_frequency_scale_changes_the_power():
    node = booted(EnclosureConfig.original())
    reference = TickReference(node)
    node.begin_workload(HPL_PROFILE, 0.0)
    powers = []
    for scale in (1.0, 0.55, 0.1, 1.0):
        node.set_frequency_scale(scale, float(reference.ticks))
        powers.append(node.total_power_w())
        for _ in range(20):
            node.advance(1.0)
    assert len(set(powers)) == 3
    assert reference.ticks == 80


def test_fractional_last_slice_and_idle_tick():
    engine = Engine()
    node = booted(EnclosureConfig.mitigated())
    reference = TickReference(node)
    controller = make_controller(n_nodes=1, engine=engine)
    controller.bind_node("n1", node)
    controller.submit("hpl", "u", n_nodes=1, duration_s=10.4,
                      profile=HPL_PROFILE)
    engine.run()
    # The controller slices the job by the second: ten whole slices,
    # then one of about 0.4 s.
    assert reference.ticks == 11
    # The job ended mid-second: the next idle tick is fractional too.
    node.sync_to(11.0)
    for _ in range(5):
        node.advance(1.0)
    node.advance(0.25)
    node.advance(1.0)
    assert reference.idle_ticks == 8


def test_idle_busy_idle_utilisation_change():
    node = booted(EnclosureConfig.mitigated())
    reference = TickReference(node)
    for _ in range(10):
        node.advance(1.0)
    node.begin_workload(HPL_PROFILE, 10.0)
    for _ in range(10):
        node.advance(1.0)
    node.end_workload(20.0)
    for _ in range(10):
        node.advance(1.0)
    assert (reference.ticks, reference.idle_ticks) == (30, 20)


def test_procfs_increments_follow_every_argument():
    procfs = ProcFS(n_cores=N_CORES, dram_bytes=1 << 30)
    reference = ProcReference()
    base = (1.0, 0.5, 0.08, 0.0)
    calls = [base, base,
             (0.4, 0.5, 0.08, 0.0),
             (0.4, 0.9, 0.08, 0.0),
             (0.4, 0.9, 0.2, 0.0),
             (0.4, 0.9, 0.2, 0.05),
             base]
    for args in calls:
        procfs.account_cpu(args[0], 1, *args[1:])
        reference.account(*args)
        assert procfs_state(procfs) == reference.state()
