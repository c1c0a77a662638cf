"""Tests for ``--requeue`` semantics and the node drain→resume lifecycle.

Covers the controller-level retry machinery (exponential backoff, retry
bound, cancel during backoff, per-attempt accounting) on pre-booted
hardware nodes, the :class:`SlurmNodeInfo` drain state machine, automatic
node recovery with and without hardware bound, and the full-cluster
requeue-after-thermal-trip path of the Fig. 6 incident response.
"""

import pytest

from repro.events.engine import Engine
from repro.slurm.accounting import render_sacct
from repro.slurm.api import SlurmAPI
from repro.slurm.job import JobState
from repro.slurm.partition import NodeAllocState, Partition, SlurmNodeInfo
from repro.slurm.scheduler import SlurmController


def make_hw_controller(n_nodes=2, engine=None):
    """A controller whose records are bound to real, pre-booted nodes."""
    from repro.cluster.node import ComputeNode

    engine = engine if engine is not None else Engine()
    controller = SlurmController(engine)
    partition = Partition(name="compute", max_time_s=1e6, default=True)
    nodes = {}
    for i in range(n_nodes):
        hostname = f"n{i + 1}"
        node = ComputeNode(hostname=hostname)
        node.power_on(0.0)
        node.start_bootloader(0.0)
        node.finish_boot(0.0)
        partition.add_node(SlurmNodeInfo(hostname=hostname))
        controller.bind_node(hostname, node)
        nodes[hostname] = node
    controller.add_partition(partition)
    return controller, nodes


def reboot(node, now_s):
    """Return a tripped hardware node to IDLE via the plain transitions."""
    node.power_on(now_s)
    node.start_bootloader(now_s)
    node.finish_boot(now_s)


class TestRequeue:
    def test_node_fail_requeues_and_completes_on_other_node(self):
        controller, nodes = make_hw_controller(n_nodes=2)
        engine = controller.engine
        job = controller.submit("hpl", "u", n_nodes=1, duration_s=10.0,
                                requeue=True, requeue_backoff_s=5.0)
        assert job.allocated_nodes == ["n1"]
        engine.call_at(3.5, lambda: nodes["n1"].emergency_shutdown(engine.now))
        engine.run()

        assert job.state is JobState.COMPLETED
        assert job.restart_count == 1
        assert len(job.attempts) == 2
        first, second = job.attempts
        assert first.state is JobState.NODE_FAIL
        assert first.nodes == ("n1",)
        assert first.backoff_s == 5.0
        assert second.state is JobState.COMPLETED
        assert second.nodes == ("n2",)          # retried on a different node
        # trip detected at the t=4 slice; 5 s backoff; full 10 s re-run
        assert second.start_time_s == pytest.approx(9.0)
        assert second.end_time_s == pytest.approx(19.0)
        # the victim stays DOWN (no recovery enabled), the job routed around it
        info = controller.partitions["compute"].nodes["n1"]
        assert info.state is NodeAllocState.DOWN
        assert engine.unconsumed_failures == []

    def test_backoff_doubles_across_restarts(self):
        controller, nodes = make_hw_controller(n_nodes=2)
        engine = controller.engine
        job = controller.submit("flaky", "u", n_nodes=1, duration_s=10.0,
                                requeue=True, requeue_backoff_s=4.0)
        # attempt 1 on n1 trips at t=2; backoff 4 s; attempt 2 starts at
        # t=6 on n2 and trips at t=8; backoff 8 s; both nodes now DOWN.
        engine.call_at(1.5, lambda: nodes["n1"].emergency_shutdown(engine.now))
        engine.call_at(7.5, lambda: nodes["n2"].emergency_shutdown(engine.now))
        engine.run()
        assert job.state is JobState.PENDING    # queued with no nodes left
        assert job.restart_count == 2
        assert [a.backoff_s for a in job.attempts] == [4.0, 8.0]

        # Service n1 and return it: the third attempt completes there.
        reboot(nodes["n1"], engine.now)
        controller.partitions["compute"].nodes["n1"].resume()
        controller.schedule_pass()
        engine.run()
        assert job.state is JobState.COMPLETED
        assert len(job.attempts) == 3
        assert job.attempts[-1].nodes == ("n1",)
        assert job.attempts[-1].backoff_s == 0.0

    def test_max_requeues_exhaustion_ends_in_node_fail(self):
        controller, nodes = make_hw_controller(n_nodes=2)
        engine = controller.engine
        job = controller.submit("doomed", "u", n_nodes=1, duration_s=10.0,
                                requeue=True, max_requeues=1,
                                requeue_backoff_s=2.0)
        engine.call_at(0.5, lambda: nodes["n1"].emergency_shutdown(engine.now))
        engine.call_at(4.5, lambda: nodes["n2"].emergency_shutdown(engine.now))
        engine.run()
        assert job.state is JobState.NODE_FAIL  # retry budget spent
        assert job.restart_count == 1
        assert len(job.attempts) == 2
        assert all(a.state is JobState.NODE_FAIL for a in job.attempts)

    def test_cancel_during_backoff_cancels_job(self):
        controller, nodes = make_hw_controller(n_nodes=2)
        engine = controller.engine
        job = controller.submit("doomed", "u", n_nodes=1, duration_s=10.0,
                                requeue=True, requeue_backoff_s=20.0)
        engine.call_at(0.5, lambda: nodes["n1"].emergency_shutdown(engine.now))
        # The job sits REQUEUED from t=1; cancel mid-backoff.
        engine.call_at(5.0, lambda: controller.cancel(job.job_id))
        engine.run()
        assert job.state is JobState.CANCELLED
        assert job.exit_reason == "cancelled during requeue backoff"
        assert len(job.attempts) == 1           # only the real execution

    def test_job_without_requeue_fails_permanently(self):
        controller, nodes = make_hw_controller(n_nodes=2)
        engine = controller.engine
        job = controller.submit("fragile", "u", n_nodes=1, duration_s=10.0)
        engine.call_at(3.5, lambda: nodes["n1"].emergency_shutdown(engine.now))
        engine.run()
        assert job.state is JobState.NODE_FAIL
        assert job.restart_count == 0
        assert len(job.attempts) == 1

    def test_requeued_state_shows_in_squeue(self):
        controller, nodes = make_hw_controller(n_nodes=1)
        engine = controller.engine
        job = controller.submit("hpl", "u", n_nodes=1, duration_s=10.0,
                                requeue=True, requeue_backoff_s=50.0)
        engine.call_at(0.5, lambda: nodes["n1"].emergency_shutdown(engine.now))
        engine.run(until=10.0)
        assert job.state is JobState.REQUEUED
        assert not job.state.is_terminal        # still owned by the scheduler
        assert " RQ " in "\n".join(controller.squeue())


class TestDrainLifecycle:
    def test_down_node_drains_then_resumes(self):
        info = SlurmNodeInfo(hostname="n1")
        info.mark_down("thermal trip")
        info.drain("recovering: thermal trip")
        assert info.state is NodeAllocState.DRAINED
        assert not info.schedulable
        info.resume()
        assert info.state is NodeAllocState.IDLE

    def test_administrative_drain_from_idle(self):
        info = SlurmNodeInfo(hostname="n1")
        info.drain("maintenance")
        assert info.state is NodeAllocState.DRAINED
        assert info.reason == "maintenance"

    def test_drain_with_job_allocated_is_error(self):
        info = SlurmNodeInfo(hostname="n1")
        info.allocate(job_id=7)
        with pytest.raises(RuntimeError, match="mark_down"):
            info.drain("maintenance")

    def test_scontrol_drain_and_resume(self):
        # ``scontrol update state=DRAIN`` is the partition's drain;
        # ``state=RESUME`` is SlurmController.resume_node.
        controller, _nodes = make_hw_controller(n_nodes=2)
        info = controller.partitions["compute"].nodes["n2"]
        info.drain("fan swap")
        assert info.state is NodeAllocState.DRAINED
        job = controller.submit("j", "u", n_nodes=2, duration_s=1.0)
        assert job.state is JobState.PENDING    # only n1 is schedulable
        controller.resume_node("n2")
        assert job.state is JobState.RUNNING


class TestAutomaticRecovery:
    def test_controller_level_recovery_without_hardware(self):
        # No service hook: only the scheduler state cycles DOWN → DRAINED
        # → IDLE after the operator-response delay.
        engine = Engine()
        controller = SlurmController(engine)
        partition = Partition(name="compute", default=True)
        partition.add_node(SlurmNodeInfo(hostname="n1"))
        controller.add_partition(partition)
        controller.enable_node_recovery(delay_s=50.0)

        controller.node_failed("n1", "power fault")
        info = partition.nodes["n1"]
        assert info.state is NodeAllocState.DOWN
        engine.run(until=49.0)
        assert info.state is NodeAllocState.DOWN    # operator not there yet
        engine.run()
        assert info.state is NodeAllocState.IDLE
        assert info.reason == ""

    def test_node_failed_is_idempotent_per_outage(self):
        engine = Engine()
        controller = SlurmController(engine)
        partition = Partition(name="compute", default=True)
        partition.add_node(SlurmNodeInfo(hostname="n1"))
        controller.add_partition(partition)
        controller.enable_node_recovery(delay_s=50.0)

        controller.node_failed("n1", "watchdog trip")
        controller.node_failed("n1", "job saw the same trip")
        assert partition.nodes["n1"].reason == "watchdog trip"
        # exactly one recovery process: a second one would crash in drain()
        engine.run()
        assert partition.nodes["n1"].state is NodeAllocState.IDLE

    def test_recovery_reschedules_pending_work(self):
        controller, nodes = make_hw_controller(n_nodes=1)
        engine = controller.engine
        controller.enable_node_recovery(delay_s=10.0)
        job = controller.submit("hpl", "u", n_nodes=1, duration_s=5.0,
                                requeue=True, requeue_backoff_s=1.0)
        engine.call_at(0.5, lambda: nodes["n1"].emergency_shutdown(engine.now))
        # The sole node is down during the backoff; the job waits PENDING
        # until recovery returns it.  The controller-only recovery cannot
        # reboot the hardware, so do that for it when the drain window opens.
        engine.call_at(10.5, lambda: reboot(nodes["n1"], engine.now))
        engine.run()
        assert job.state is JobState.COMPLETED
        assert len(job.attempts) == 2
        assert job.attempts[0].nodes == job.attempts[1].nodes == ("n1",)


class TestClusterRequeueEndToEnd:
    def test_thermal_trip_requeues_job_and_recovers_node(self):
        from repro.cluster.cluster import MonteCimoneCluster
        from repro.power.model import HPL_PROFILE
        from repro.thermal.enclosure import EnclosureConfig

        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.mitigated())
        cluster.enable_auto_recovery(delay_s=30.0)
        cluster.boot_all()
        engine = cluster.engine
        api = SlurmAPI(cluster.slurm)

        job_id = api.sbatch("hpl-requeue", "ops", nodes=1, duration_s=60.0,
                            profile=HPL_PROFILE, requeue=True,
                            requeue_backoff_s=15.0)
        job = cluster.slurm.jobs[job_id]
        assert job.allocated_nodes == ["mc-node-1"]
        engine.call_at(engine.now + 10.0,
                       lambda: cluster.inject_node_failure(
                           "mc-node-1", reason="injected trip"))
        api.wait_all()

        assert job.state is JobState.COMPLETED
        assert len(job.attempts) == 2
        first, second = job.attempts
        assert first.state is JobState.NODE_FAIL
        assert first.nodes == ("mc-node-1",)
        assert second.state is JobState.COMPLETED
        assert second.nodes != first.nodes      # retried on a different node

        # Both attempts visible in accounting (sacct --duplicates view).
        sacct = render_sacct(cluster.slurm)
        job_rows = [r for r in sacct.splitlines() if "hpl-requeue" in r]
        assert len(job_rows) == 2
        assert "NODE_FAIL" in job_rows[0]
        assert "COMPLETED" in job_rows[1]

        # Let the drain→service→resume lifecycle finish: the victim cools,
        # reboots, and returns to the schedulable pool.
        cluster.run_for(2400.0)
        info = cluster.slurm.partitions["compute"].nodes["mc-node-1"]
        assert info.state is NodeAllocState.IDLE
        from repro.cluster.node import NodeState
        assert cluster.nodes["mc-node-1"].state is NodeState.IDLE

        # And nothing the fault injected was silently lost by the kernel.
        assert engine.unconsumed_failures == []
