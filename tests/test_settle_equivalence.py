"""Settle-on-read accounting equals ticking everything every second.

``ComputeNode.advance`` steps only the SoC and records the tick;
``ComputeNode.settle`` replays the recorded ticks into the rest of the
node before anything reads it.  :class:`EagerNode` keeps the tick that
updates every part of the node each second, written out here, and never
defers anything.  Random sequences of ticks, transitions, DTM control
steps, trips, service reboots, enclosure changes, sensor faults and
plugin reads drive one node of each kind in lockstep; every plugin read
and the final state must agree bit for bit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.faults import ChaosLog
from repro.chaos.injectors import SensorFaultInjector
from repro.cluster.node import ComputeNode, NodeState
from repro.events.engine import Engine
from repro.examon.broker import MQTTBroker
from repro.examon.plugins.pmu_pub import PmuPubPlugin
from repro.examon.plugins.stats_pub import StatsPubPlugin
from repro.hardware.cores import CoreActivity, U74Core
from repro.power.model import (
    HPL_PROFILE,
    IDLE_PROFILE,
    QE_PROFILE,
    STREAM_DDR_PROFILE,
    STREAM_L2_PROFILE,
    NodePhase,
)
from repro.power.traces import activity_modulation
from repro.thermal.dtm import ThermalGovernor
from repro.thermal.enclosure import Enclosure, EnclosureConfig


class EagerNode(ComputeNode):
    """A node whose every tick updates all of its state at once."""

    def settle(self):
        """Nothing is ever pending."""

    def advance(self, dt_s):
        if not dt_s >= 0:
            raise ValueError(f"negative time step {dt_s}")
        self._now_s += dt_s
        profile = self.active_profile
        board = self.board
        if self.phase is NodePhase.R3_OS:
            if profile.utilisation > 0:
                modulation = activity_modulation(profile.name, self._now_s)
                activity = CoreActivity(
                    duration_s=dt_s * self.frequency_scale,
                    ipc=max(0.0, min(profile.ipc * modulation, 2.0)),
                    flop_fraction=profile.flop_fraction,
                    l2_miss_rate=0.002 + 0.02 * profile.ddr_data_activity,
                    utilisation=profile.utilisation)
                counts = activity.counts(board.cores.soc.clock_hz,
                                         U74Core.MAX_IPC)
                for core in board.cores:
                    core.advance(counts)
            else:
                board.cores.idle(dt_s, 1)
            self.procfs.account_cpu(dt_s, 1, profile.utilisation)
            self.procfs.update_memory(board.memory.usage())
        thermal = self.thermal
        if thermal is not None:
            power_w = self.total_power_w()
            ambient = thermal.enclosure.local_ambient(thermal.slot)
            thermal.soc.step(dt_s, power_w, ambient)
            thermal.motherboard.step(
                dt_s, power_w * thermal.MB_HEAT_FRACTION, ambient)
            thermal.nvme.step(
                dt_s, thermal.NVME_POWER_W,
                0.5 * (ambient + thermal.motherboard.temperature_c))
            sensors = board.hwmon.sensors
            sensors["cpu_temp"].set(thermal.soc.temperature_c)
            sensors["mb_temp"].set(thermal.motherboard.temperature_c)
            board.nvme.temperature_c = thermal.nvme.temperature_c
            board.sync_nvme_temperature()
        self._apply_power()


PROFILES = (IDLE_PROFILE, HPL_PROFILE, STREAM_L2_PROFILE, STREAM_DDR_PROFILE,
            QE_PROFILE)
ENCLOSURES = (EnclosureConfig.original(), EnclosureConfig.mitigated())
#: Fractional steps make the ``now += dt`` chain differ from ``n * dt``.
STEPS = (0.0, 0.1, 0.3, 0.7, 1.0, 1.0, 1.0, 2.5, 37.25)
GAPS = (0.0, 0.0, 0.25, 1.0, 3.3)

OPERATIONS = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from(STEPS)),
    st.tuples(st.just("ticks"), st.integers(2, 40), st.sampled_from(STEPS)),
    st.tuples(st.just("sync_to"), st.sampled_from((0.5, 1.0, 7.9, 60.0))),
    st.tuples(st.sampled_from(["power_on", "start_bootloader", "finish_boot",
                               "end_workload", "emergency_shutdown"]),
              st.sampled_from(GAPS)),
    st.tuples(st.just("begin_workload"), st.sampled_from(GAPS),
              st.sampled_from(PROFILES)),
    st.tuples(st.just("set_frequency_scale"), st.sampled_from(GAPS),
              st.sampled_from([0.4, 0.55, 0.7, 1.0])),
    st.tuples(st.just("dtm")),
    st.tuples(st.just("service")),
    st.tuples(st.just("enclosure"), st.sampled_from(ENCLOSURES)),
    st.tuples(st.just("sensor"), st.sampled_from(["cpu_temp", "mb_temp"]),
              st.sampled_from(["dropout", "stuck"]), st.booleans()),
    # One plugin reads alone, so each reader must settle by itself.
    st.tuples(st.just("read"), st.sampled_from([0, 1])),
)


class Rig:
    """One node with its enclosure, governor, plugins and injectors."""

    def __init__(self, cls, block):
        self.node = cls(hostname="mc-node-7")
        if block is not None:
            self.node.SETTLE_BLOCK = block
        self.enclosure = Enclosure(EnclosureConfig.original())
        self.node.attach_thermal(self.enclosure, slot=4)
        self.governor = ThermalGovernor(self.node, throttle_c=40.0,
                                        release_c=35.0)
        broker = MQTTBroker()
        self.plugins = (PmuPubPlugin(self.node, broker),
                        StatsPubPlugin(self.node, broker))
        self.engine = Engine()
        self.injectors = {}

    def injector(self, sensor, mode):
        key = (sensor, mode)
        if key not in self.injectors:
            self.injectors[key] = SensorFaultInjector(
                self.engine, ChaosLog(), self.node, sensor, mode=mode)
        return self.injectors[key]

    def apply(self, name, args, clock):
        node = self.node
        if name == "advance":
            node.advance(args[0])
        elif name == "ticks":
            count, dt_s = args
            for _ in range(count):
                node.advance(dt_s)
        elif name == "sync_to":
            node.sync_to(clock)
        elif name == "dtm":
            self.governor.control_step(clock)
        elif name == "service":
            if node.state is NodeState.TRIPPED:
                node.state = NodeState.OFF
                node.power_on(clock)
                node.start_bootloader(clock)
                node.finish_boot(clock)
        elif name == "enclosure":
            # As the cluster's mitigation does it: the shared enclosure
            # changes, then the node's slot takes the change.
            self.enclosure.config = args[0]
            node.set_enclosure(self.enclosure)
        elif name == "sensor":
            sensor, mode, inject = args
            injector = self.injector(sensor, mode)
            injector.inject() if inject else injector.restore()
        elif name == "read":
            return self.plugins[args[0]].sample(clock)
        elif name == "begin_workload":
            node.begin_workload(args[1], clock)
        elif name == "set_frequency_scale":
            node.set_frequency_scale(args[1], clock)
        else:
            getattr(node, name)(clock)
        return None


def state(node):
    """Every settled and hot quantity of a node, floats as hex."""
    node.settle()
    lines = [node.state, node.phase, node.active_profile.name,
             node.frequency_scale.hex(), node._now_s.hex()]
    lines += [core.hpm.snapshot() for core in node.board.cores]
    lines += [(rail.name, rail.power_w.hex(), rail.energy_j.hex(),
               rail._last_update_s.hex()) for rail in node.board.rails]
    procfs = node.procfs
    cpu = procfs.cpu
    lines.append([value.hex() for value in (
        cpu.usr, cpu.sys, cpu.idl, cpu.wai, procfs.load_1m, procfs.load_5m,
        procfs.load_15m)])
    lines.append((procfs.interrupts_total, procfs.context_switches_total,
                  procfs.memory(), procfs.processes()))
    thermal = node.thermal
    lines.append([rc.temperature_c.hex() for rc in (
        thermal.soc, thermal.motherboard, thermal.nvme)])
    lines.append([(sensor.name, sensor.temperature_c.hex(),
                   sensor.failure_mode)
                  for sensor in node.board.hwmon.sensors.values()])
    lines.append(node.board.nvme.temperature_c.hex())
    return lines


def clock_after(name, args, node):
    """The time an operation acts at: the node clock plus a gap."""
    if name == "sync_to":
        return node._now_s + args[0]
    if name in ("power_on", "start_bootloader", "finish_boot",
                "end_workload", "emergency_shutdown", "begin_workload",
                "set_frequency_scale"):
        return node._now_s + args[0]
    return node._now_s


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.sampled_from([None, 3]),
       st.lists(OPERATIONS, min_size=1, max_size=50))
def test_settled_node_matches_the_eager_tick(booted, block, operations):
    settled, eager = Rig(ComputeNode, block), Rig(EagerNode, None)
    if booted:
        for rig in (settled, eager):
            rig.node.power_on(0.0)
            rig.node.start_bootloader(0.0)
            rig.node.finish_boot(0.0)
    for name, *args in operations:
        clock = clock_after(name, args, eager.node)
        outcomes = []
        for rig in (settled, eager):
            try:
                outcomes.append(("ok", rig.apply(name, args, clock)))
            except RuntimeError as exc:  # a refused transition
                outcomes.append(("refused", str(exc)))
        assert outcomes[0] == outcomes[1], name
    assert state(settled.node) == state(eager.node)


def test_a_shift_of_idle_ticks_stays_compact_and_exact():
    # An 8-hour idle shift spans several replay blocks.
    nodes = []
    for cls in (ComputeNode, EagerNode):
        node = cls(hostname="mc-node-1")
        node.attach_thermal(Enclosure(EnclosureConfig.mitigated()), slot=0)
        node.power_on(0.0)
        node.start_bootloader(4.0)
        node.finish_boot(10.0)
        node.sync_to(10.6)
        for _ in range(8 * 3600):
            node.advance(1.0)
        nodes.append(node)
    settled, eager = nodes
    # A fractional first tick, then one run for the whole shift.
    assert settled._pending == [[10.6 - 10.0, 1], [1.0, 8 * 3600]]
    assert state(settled) == state(eager)
    assert settled._pending == []
