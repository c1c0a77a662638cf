"""Tests for the compute-node lifecycle."""

import pytest

from repro.cluster.node import ComputeNode, NodeState
from repro.events.engine import Engine
from repro.power.model import HPL_PROFILE, NodePhase
from repro.slurm.job import JobState
from tests.test_slurm import make_controller


@pytest.fixture
def booted_node():
    node = ComputeNode(hostname="test-node")
    node.power_on(0.0)
    node.start_bootloader(6.0)
    node.finish_boot(21.0)
    return node


class TestBootSequence:
    def test_state_machine_happy_path(self, booted_node):
        assert booted_node.state is NodeState.IDLE
        assert booted_node.phase is NodePhase.R3_OS

    def test_out_of_order_transitions_rejected(self):
        node = ComputeNode(hostname="n")
        with pytest.raises(RuntimeError):
            node.start_bootloader(0.0)   # power not applied
        node.power_on(0.0)
        with pytest.raises(RuntimeError):
            node.finish_boot(1.0)        # bootloader not run
        with pytest.raises(RuntimeError):
            node.power_on(2.0)           # already booting

    def test_r1_power_is_leakage_only(self):
        node = ComputeNode(hostname="n")
        node.power_on(0.0)
        assert node.total_power_w() == pytest.approx(1.385, abs=0.01)

    def test_idle_power_after_boot(self, booted_node):
        assert booted_node.total_power_w() == pytest.approx(4.810, abs=0.02)

    def test_patched_uboot_enables_hpm(self, booted_node):
        events = booted_node.board.perf.available_events(0)
        assert "fp_ops" in events

    def test_stock_uboot_leaves_hpm_disabled(self):
        node = ComputeNode(hostname="n", patched_uboot=False)
        node.power_on(0.0)
        node.start_bootloader(6.0)
        node.finish_boot(21.0)
        assert node.board.perf.available_events(0) == ["cycles", "instructions"]

    def test_boot_process_on_engine(self):
        engine = Engine()
        node = ComputeNode(hostname="n")
        engine.run_until_complete(engine.spawn(node.boot_process(engine)))
        assert node.state is NodeState.IDLE
        assert engine.now == pytest.approx(21.0)


class TestWorkloadExecution:
    def test_begin_requires_idle(self):
        node = ComputeNode(hostname="n")
        with pytest.raises(RuntimeError):
            node.begin_workload(HPL_PROFILE, 0.0)

    def test_workload_raises_power(self, booted_node):
        booted_node.begin_workload(HPL_PROFILE, 22.0)
        assert booted_node.total_power_w() == pytest.approx(5.94, abs=0.03)
        booted_node.end_workload(30.0)
        assert booted_node.total_power_w() == pytest.approx(4.810, abs=0.02)

    def test_workload_allocates_memory(self, booted_node):
        booted_node.begin_workload(HPL_PROFILE, 22.0)
        assert booted_node.board.memory.allocated_bytes > 0
        booted_node.end_workload(30.0)
        assert booted_node.board.memory.allocated_bytes == 0

    def test_advance_drives_counters(self, booted_node):
        booted_node.begin_workload(HPL_PROFILE, 22.0)
        before = booted_node.board.cores.total_instructions()
        booted_node.advance(10.0)
        assert booted_node.board.cores.total_instructions() > before

    def test_nan_step_rejected_before_the_clock_moves(self, booted_node):
        with pytest.raises(ValueError):
            booted_node.advance(float("nan"))
        core = booted_node.board.cores.cores[0]
        cycles = core.hpm.cycle
        booted_node.sync_to(22.0)  # one second after boot
        assert core.hpm.cycle - cycles == int(core.soc.clock_hz)

    def test_sync_to_is_idempotent(self, booted_node):
        booted_node.begin_workload(HPL_PROFILE, 22.0)
        booted_node.sync_to(30.0)
        cycles = booted_node.board.cores.cores[0].hpm.cycle
        booted_node.sync_to(30.0)  # same instant: no double counting
        assert booted_node.board.cores.cores[0].hpm.cycle == cycles

    def test_slurm_job_on_engine_returns_node_to_idle(self):
        engine = Engine()
        node = ComputeNode(hostname="n")
        engine.run_until_complete(engine.spawn(node.boot_process(engine)))
        controller = make_controller(n_nodes=1, engine=engine)
        controller.bind_node("n1", node)
        job = controller.submit("hpl", "u", n_nodes=1, duration_s=30.0,
                                profile=HPL_PROFILE)
        engine.run()
        assert job.state is JobState.COMPLETED
        assert node.state is NodeState.IDLE
        assert sum(core.hpm.snapshot()["fp_ops"]
                   for core in node.board.cores) > 0


class TestEmergencyShutdown:
    def test_trip_drops_power_and_frees_memory(self, booted_node):
        booted_node.begin_workload(HPL_PROFILE, 22.0)
        booted_node.emergency_shutdown(25.0)
        assert booted_node.state is NodeState.TRIPPED
        assert booted_node.total_power_w() == 0.0
        assert booted_node.board.memory.allocated_bytes == 0

    def test_tripped_node_can_power_on_again(self, booted_node):
        booted_node.emergency_shutdown(25.0)
        booted_node.power_on(100.0)
        assert booted_node.state is NodeState.BOOTING

    def test_end_workload_noop_when_tripped(self, booted_node):
        booted_node.begin_workload(HPL_PROFILE, 22.0)
        booted_node.emergency_shutdown(25.0)
        booted_node.end_workload(26.0)  # must not raise
        assert booted_node.state is NodeState.TRIPPED
