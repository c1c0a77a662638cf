"""Failure-injection tests: trips, power cycles, mid-run faults.

The reproduction must stay coherent when hardware misbehaves — these
tests inject faults at awkward moments and assert the system's recorded
state stays consistent (the Fig. 6 incident is the naturally-occurring
instance of this class).
"""

import pytest

from repro.cluster.cluster import MonteCimoneCluster
from repro.cluster.node import ComputeNode, NodeState
from repro.power.model import HPL_PROFILE
from repro.slurm.api import SlurmAPI
from repro.slurm.job import JobState
from repro.slurm.partition import NodeAllocState
from repro.thermal.enclosure import EnclosureConfig


@pytest.fixture
def cluster():
    cluster = MonteCimoneCluster(enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    return cluster


class TestInjectedTrips:
    def test_manual_trip_mid_job_fails_job(self, cluster):
        api = SlurmAPI(cluster.slurm)
        job_id = api.sbatch("hpl", "a", nodes=8, duration_s=600.0,
                            profile=HPL_PROFILE)
        cluster.run_for(60.0)
        cluster.nodes["mc-node-3"].emergency_shutdown(cluster.engine.now)
        api.wait_all()
        job = cluster.slurm.jobs[job_id]
        assert job.state is JobState.NODE_FAIL
        assert "mc-node-3" in job.exit_reason

    def test_failed_node_marked_down_and_excluded(self, cluster):
        api = SlurmAPI(cluster.slurm)
        api.sbatch("hpl", "a", nodes=8, duration_s=600.0,
                   profile=HPL_PROFILE)
        cluster.run_for(60.0)
        cluster.nodes["mc-node-3"].emergency_shutdown(cluster.engine.now)
        api.wait_all()
        info = cluster.slurm.partitions["compute"].nodes["mc-node-3"]
        assert info.state is NodeAllocState.DOWN
        # Follow-up jobs schedule around the down node.
        retry = api.srun("retry", "a", nodes=7, duration_s=60.0,
                         profile=HPL_PROFILE)
        assert retry.state is JobState.COMPLETED
        assert "mc-node-3" not in retry.allocated_nodes

    def test_trip_on_idle_node_does_not_affect_jobs(self, cluster):
        api = SlurmAPI(cluster.slurm)
        job_id = api.sbatch("hpl", "a", nodes=4, duration_s=300.0,
                            profile=HPL_PROFILE)
        cluster.run_for(30.0)
        # Trip a node OUTSIDE the allocation.
        job = cluster.slurm.jobs[job_id]
        victim = next(name for name in cluster.nodes
                      if name not in job.allocated_nodes)
        cluster.nodes[victim].emergency_shutdown(cluster.engine.now)
        api.wait_all()
        assert job.state is JobState.COMPLETED

    def test_multiple_simultaneous_trips(self, cluster):
        api = SlurmAPI(cluster.slurm)
        job_id = api.sbatch("hpl", "a", nodes=8, duration_s=600.0,
                            profile=HPL_PROFILE)
        cluster.run_for(60.0)
        now = cluster.engine.now
        for victim in ("mc-node-2", "mc-node-5", "mc-node-8"):
            cluster.nodes[victim].emergency_shutdown(now)
        api.wait_all()
        job = cluster.slurm.jobs[job_id]
        assert job.state is JobState.NODE_FAIL
        down = [info.hostname
                for info in cluster.slurm.partitions["compute"].nodes.values()
                if info.state is NodeAllocState.DOWN]
        assert set(down) == {"mc-node-2", "mc-node-5", "mc-node-8"}


class TestPowerCycleCoherence:
    def test_counters_survive_reading_after_trip(self, cluster):
        node = cluster.nodes["mc-node-1"]
        api = SlurmAPI(cluster.slurm)
        api.sbatch("hpl", "a", nodes=1, duration_s=120.0,
                   profile=HPL_PROFILE)
        cluster.run_for(60.0)
        node.settle()
        before = node.board.perf.read(0, "instructions")
        node.emergency_shutdown(cluster.engine.now)
        # Sampling a tripped node's counters must not raise (ExaMon keeps
        # polling until the plugin notices the node is gone).
        assert node.board.perf.read(0, "instructions") == before

    def test_tripped_node_cools_to_ambient(self, cluster):
        node = cluster.nodes["mc-node-1"]
        api = SlurmAPI(cluster.slurm)
        api.sbatch("hpl", "a", nodes=8, duration_s=300.0,
                   profile=HPL_PROFILE)
        cluster.run_for(200.0)
        hot = node.cpu_temperature_c()
        node.emergency_shutdown(cluster.engine.now)
        cluster.run_for(1200.0)
        assert node.cpu_temperature_c() < hot
        assert node.cpu_temperature_c() == pytest.approx(25.0, abs=3.0)

    def test_memory_clean_after_service(self, cluster):
        node = cluster.nodes["mc-node-1"]
        api = SlurmAPI(cluster.slurm)
        api.sbatch("hpl", "a", nodes=1, duration_s=600.0,
                   profile=HPL_PROFILE)
        cluster.run_for(30.0)
        assert node.board.memory.allocated_bytes > 0
        node.emergency_shutdown(cluster.engine.now)
        api.wait_all()
        cluster.run_for(1500.0)  # cool-down
        cluster.service_node("mc-node-1")
        assert node.state is NodeState.IDLE
        assert node.board.memory.allocated_bytes == 0

    def test_double_shutdown_is_idempotent(self, cluster):
        node = cluster.nodes["mc-node-1"]
        node.emergency_shutdown(cluster.engine.now)
        node.emergency_shutdown(cluster.engine.now)  # must not raise
        assert node.state is NodeState.TRIPPED


class TestServiceNode:
    def test_service_refuses_untripped_node(self, cluster):
        with pytest.raises(RuntimeError, match="not tripped"):
            cluster.service_node("mc-node-1")
        assert cluster.nodes["mc-node-1"].state is NodeState.IDLE
        assert cluster.engine.unconsumed_failures == []

    def test_service_starts_the_job_waiting_for_the_node(self, cluster):
        # The requeued 8-node job needs the tripped node, so it waits.
        job = cluster.slurm.submit(name="hpl", user="alice", n_nodes=8,
                                   duration_s=600.0, profile=HPL_PROFILE,
                                   requeue=True)
        cluster.run_for(200.0)
        cluster.inject_node_failure("mc-node-1")
        cluster.run_for(120.0)  # past the requeue backoff
        assert job.state is JobState.PENDING
        cluster.service_node("mc-node-1")
        assert job.state is JobState.RUNNING
        assert "mc-node-1" in job.allocated_nodes

    def test_service_gives_up_when_guard_expires_before_cooling(self,
                                                                cluster):
        api = SlurmAPI(cluster.slurm)
        api.sbatch("hpl", "a", nodes=8, duration_s=600.0,
                   profile=HPL_PROFILE)
        cluster.run_for(200.0)
        cluster.inject_node_failure("mc-node-1")
        assert cluster.nodes["mc-node-1"].cpu_temperature_c() > 32.0
        with pytest.raises(RuntimeError, match="failed to cool"):
            cluster.service_node("mc-node-1", cooldown_guard_s=5.0)
        assert cluster.nodes["mc-node-1"].state is NodeState.TRIPPED
        assert cluster.engine.unconsumed_failures == []


class TestTripSweep:
    # Boot completes 21 s in; the 120 s --requeue job then runs on every
    # node.  The three trip times land before boot finishes, inside
    # attempt 1, and after the last attempt ends.  A boot-time trip delays
    # the job (it waits for the node's recovery) but never fails it; a
    # mid-job trip costs one NODE_FAIL attempt plus the requeued retry; a
    # post-job trip does not touch the job.
    @pytest.mark.parametrize("trip_s,phase,attempts,restarts", [
        (10.0, "boot", 1, 0),
        (90.0, "mid-job", 2, 1),
        (200.0, "teardown", 1, 0),
    ])
    def test_trip_recovers_and_job_completes(self, trip_s, phase, attempts,
                                             restarts):
        victim = "mc-node-3"
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.mitigated())
        cluster.enable_auto_recovery(delay_s=30.0)
        cluster.engine.call_at(
            trip_s, lambda: cluster.inject_node_failure(victim))
        cluster.boot_all()
        boot_done_s = cluster.engine.now
        api = SlurmAPI(cluster.slurm)
        job_id = api.sbatch("hpl", "ops", nodes=8, duration_s=120.0,
                            profile=HPL_PROFILE, requeue=True,
                            requeue_backoff_s=20.0)
        api.wait_all()
        # Let a post-job trip fire and the node's recovery finish.
        cluster.run_for(2400.0)

        job = cluster.slurm.jobs[job_id]
        first, last = job.attempts[0], job.attempts[-1]
        if trip_s < boot_done_s:
            landed = "boot"
        elif first.start_time_s < trip_s <= first.end_time_s:
            landed = "mid-job"
        elif trip_s > last.end_time_s:
            landed = "teardown"
        else:
            landed = "between attempts"
        assert landed == phase
        assert (len(job.attempts), job.restart_count) == (attempts, restarts)
        assert job.state is JobState.COMPLETED
        info = cluster.slurm.partitions["compute"].nodes[victim]
        assert info.state is NodeAllocState.IDLE
        # No injected fault was silently lost by the kernel.
        assert cluster.engine.unconsumed_failures == []


class TestSchedulerUnderCancellationStorm:
    def test_cancel_everything_leaves_clean_state(self, cluster):
        api = SlurmAPI(cluster.slurm)
        ids = [api.sbatch(f"j{i}", "a", nodes=4, duration_s=500.0,
                          profile=HPL_PROFILE) for i in range(6)]
        cluster.run_for(10.0)
        for job_id in ids:
            cluster.slurm.cancel(job_id)
        api.wait_all()
        assert all(cluster.slurm.jobs[i].state is JobState.CANCELLED
                   for i in ids)
        assert cluster.slurm.partitions["compute"].n_idle() == 8
