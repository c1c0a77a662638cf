"""Tests for dynamic thermal management (§VI future work, implemented)."""

import pytest

from repro.cluster.cluster import MonteCimoneCluster
from repro.cluster.node import ComputeNode, NodeState
from repro.power.model import HPL_PROFILE, NodePhase, RailPowerModel
from repro.slurm.api import SlurmAPI
from repro.slurm.job import JobState
from repro.thermal.dtm import THROTTLE_LEVELS, ClusterDTM, ThermalGovernor
from repro.thermal.enclosure import Enclosure, EnclosureConfig


def booted_node(slot=4, config=None):
    node = ComputeNode(hostname="mc-node-7")
    node.attach_thermal(
        Enclosure(config if config is not None else EnclosureConfig.original()),
        slot=slot)
    node.power_on(0.0)
    node.start_bootloader(6.0)
    node.finish_boot(21.0)
    return node


class TestFrequencyScaling:
    def test_power_model_scales_dynamic_core_power(self):
        model = RailPowerModel()
        full = model.rail_powers_mw(NodePhase.R3_OS, HPL_PROFILE,
                                    frequency_scale=1.0)
        half = model.rail_powers_mw(NodePhase.R3_OS, HPL_PROFILE,
                                    frequency_scale=0.5)
        # Leakage (984) + OS (514) survive; clock+activity halve.
        expected = 984 + 514 + 0.5 * (full["core"] - 984 - 514)
        assert half["core"] == pytest.approx(expected)

    def test_leakage_unaffected_by_throttle(self):
        model = RailPowerModel()
        half = model.rail_powers_mw(NodePhase.R1_POWER_ON,
                                    frequency_scale=0.5)
        assert half["core"] == pytest.approx(984)

    def test_invalid_scale_rejected(self):
        model = RailPowerModel()
        with pytest.raises(ValueError):
            model.rail_powers_mw(NodePhase.R3_OS, HPL_PROFILE,
                                 frequency_scale=0.0)
        node = booted_node()
        with pytest.raises(ValueError):
            node.set_frequency_scale(1.5, 22.0)

    def test_node_throttle_reduces_power(self):
        node = booted_node()
        node.begin_workload(HPL_PROFILE, 22.0)
        full_power = node.total_power_w()
        node.set_frequency_scale(0.55, 23.0)
        assert node.total_power_w() < full_power - 0.4

    def test_throttle_slows_instruction_throughput(self):
        full = booted_node()
        slow = booted_node()
        for node in (full, slow):
            node.begin_workload(HPL_PROFILE, 22.0)
        slow.set_frequency_scale(0.55, 22.0)
        full.advance(100.0)
        slow.advance(100.0)
        full.settle()
        slow.settle()
        ratio = (slow.board.cores.total_instructions()
                 / full.board.cores.total_instructions())
        assert ratio == pytest.approx(0.55, abs=0.02)


class TestGovernor:
    def test_hysteresis_validation(self):
        with pytest.raises(ValueError):
            ThermalGovernor(booted_node(), throttle_c=80.0, release_c=90.0)

    def test_steps_down_when_hot(self):
        node = booted_node()
        governor = ThermalGovernor(node, throttle_c=95.0, release_c=85.0)
        node.board.hwmon.set_celsius("cpu_temp", 99.0)
        governor.control_step(30.0)
        assert governor.scale == THROTTLE_LEVELS[1]
        assert node.frequency_scale == THROTTLE_LEVELS[1]

    def test_steps_back_up_when_cool(self):
        node = booted_node()
        governor = ThermalGovernor(node)
        node.board.hwmon.set_celsius("cpu_temp", 99.0)
        governor.control_step(30.0)
        node.board.hwmon.set_celsius("cpu_temp", 80.0)
        governor.control_step(32.0)
        assert governor.scale == 1.0
        assert not governor.throttled

    def test_holds_inside_hysteresis_band(self):
        node = booted_node()
        governor = ThermalGovernor(node)
        node.board.hwmon.set_celsius("cpu_temp", 99.0)
        governor.control_step(30.0)
        node.board.hwmon.set_celsius("cpu_temp", 90.0)  # between thresholds
        governor.control_step(32.0)
        assert governor.scale == THROTTLE_LEVELS[1]

    def test_saturates_at_lowest_level(self):
        node = booted_node()
        governor = ThermalGovernor(node)
        node.board.hwmon.set_celsius("cpu_temp", 120.0)
        for t in range(10):
            governor.control_step(30.0 + t)
        assert governor.scale == THROTTLE_LEVELS[-1]

    def test_events_logged(self):
        node = booted_node()
        governor = ThermalGovernor(node)
        node.board.hwmon.set_celsius("cpu_temp", 99.0)
        governor.control_step(30.0)
        assert len(governor.events) == 1
        event = governor.events[0]
        assert event.old_scale == 1.0 and event.new_scale == THROTTLE_LEVELS[1]

    def test_skips_off_nodes(self):
        node = ComputeNode(hostname="off-node")
        governor = ThermalGovernor(node)
        governor.control_step(1.0)  # must not raise
        assert governor.events == []


class TestClusterDTMIntegration:
    def test_dtm_prevents_the_fig6_runaway(self):
        """With DTM, HPL in the ORIGINAL enclosure completes untripped."""
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.original())
        cluster.boot_all()
        dtm = ClusterDTM(cluster.nodes)
        dtm.start(cluster.engine)
        api = SlurmAPI(cluster.slurm)
        job = api.srun("hpl", "bench", 8, duration_s=1800.0,
                       profile=HPL_PROFILE)
        assert job.state is JobState.COMPLETED
        assert cluster.watchdog.tripped_nodes() == []
        # The governor did intervene on the runaway slot.
        assert any(e.node == "mc-node-7" for e in dtm.all_events())
        # Node 7 held below the trip by the control loop.
        assert cluster.nodes["mc-node-7"].cpu_temperature_c() < 107.0

    def test_dtm_cost_is_quantified(self):
        """DTM trades throughput for survival: node 7 runs slower."""
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.original())
        cluster.boot_all()
        dtm = ClusterDTM(cluster.nodes)
        dtm.start(cluster.engine)
        api = SlurmAPI(cluster.slurm)
        api.srun("hpl", "bench", 8, duration_s=1800.0, profile=HPL_PROFILE)
        throttled = dtm.governors["mc-node-7"]
        unthrottled = dtm.governors["mc-node-1"]
        assert throttled.events and not unthrottled.events
        node7 = cluster.nodes["mc-node-7"].board.cores.total_instructions()
        node1 = cluster.nodes["mc-node-1"].board.cores.total_instructions()
        assert node7 < 0.95 * node1
