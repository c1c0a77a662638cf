"""Tests for the SLURM-style workload manager."""

import pytest

from repro.events.engine import Engine
from repro.slurm.job import Job, JobState
from repro.slurm.partition import NodeAllocState, Partition, SlurmNodeInfo
from repro.slurm.scheduler import SlurmController
from repro.slurm.accounting import render_sacct
from repro.slurm.api import SlurmAPI


def make_controller(n_nodes=4, engine=None):
    engine = engine if engine is not None else Engine()
    controller = SlurmController(engine)
    partition = Partition(name="compute", max_time_s=1e6, default=True)
    for i in range(n_nodes):
        partition.add_node(SlurmNodeInfo(hostname=f"n{i + 1}"))
    controller.add_partition(partition)
    return controller


class TestJob:
    def test_validation(self):
        with pytest.raises(ValueError):
            Job(job_id=1, name="j", user="u", n_nodes=0, duration_s=1.0)
        with pytest.raises(ValueError):
            Job(job_id=1, name="j", user="u", n_nodes=1, duration_s=-1.0)
        for backoff_s in (-1.0, 0.0):
            with pytest.raises(ValueError):
                Job(job_id=1, name="j", user="u", n_nodes=1, duration_s=1.0,
                    requeue_backoff_s=backoff_s)

    def test_terminal_states(self):
        assert not JobState.PENDING.is_terminal
        assert not JobState.RUNNING.is_terminal
        assert JobState.COMPLETED.is_terminal
        assert JobState.NODE_FAIL.is_terminal

    def test_squeue_row_format(self):
        job = Job(job_id=7, name="hpl", user="alice", n_nodes=2,
                  duration_s=10.0)
        row = job.squeue_row()
        assert "hpl" in row and "alice" in row and "PD" in row


class TestPartition:
    def test_duplicate_node_rejected(self):
        partition = Partition(name="p")
        partition.add_node(SlurmNodeInfo(hostname="n1"))
        with pytest.raises(ValueError):
            partition.add_node(SlurmNodeInfo(hostname="n1"))

    def test_idle_nodes_sorted(self):
        partition = Partition(name="p")
        for name in ("n3", "n1", "n2"):
            partition.add_node(SlurmNodeInfo(hostname=name))
        assert [n.hostname for n in partition.idle_nodes()] == ["n1", "n2", "n3"]

    def test_node_state_machine(self):
        info = SlurmNodeInfo(hostname="n1")
        info.allocate(job_id=1)
        assert info.state is NodeAllocState.ALLOCATED
        with pytest.raises(RuntimeError):
            info.allocate(job_id=2)
        info.release()
        assert info.schedulable
        info.mark_down("thermal trip")
        info.release()  # release of a down node keeps it down
        assert info.state is NodeAllocState.DOWN
        info.resume()
        assert info.schedulable


class TestScheduling:
    def test_immediate_start_when_nodes_free(self):
        controller = make_controller()
        job = controller.submit("j", "u", n_nodes=2, duration_s=5.0)
        assert job.state is JobState.RUNNING
        assert len(job.allocated_nodes) == 2

    def test_fifo_queueing(self):
        controller = make_controller(n_nodes=2)
        first = controller.submit("a", "u", 2, duration_s=10.0)
        second = controller.submit("b", "u", 2, duration_s=10.0)
        assert first.state is JobState.RUNNING
        assert second.state is JobState.PENDING
        controller.engine.run()
        assert second.state is JobState.COMPLETED
        assert second.start_time_s >= first.end_time_s

    def test_job_completes_after_duration(self):
        controller = make_controller()
        job = controller.submit("j", "u", 1, duration_s=7.0)
        controller.engine.run()
        assert job.state is JobState.COMPLETED
        assert job.elapsed_s == pytest.approx(7.0)

    def test_oversized_job_rejected(self):
        controller = make_controller(n_nodes=2)
        with pytest.raises(ValueError):
            controller.submit("big", "u", 3, duration_s=1.0)

    def test_time_limit_enforced(self):
        controller = make_controller()
        job = controller.submit("j", "u", 1, duration_s=100.0,
                                time_limit_s=10.0)
        controller.engine.run()
        assert job.state is JobState.TIMEOUT
        assert job.elapsed_s == pytest.approx(10.0)

    def test_over_partition_limit_rejected(self):
        controller = make_controller()
        with pytest.raises(ValueError):
            controller.submit("j", "u", 1, duration_s=1.0, time_limit_s=1e7)

    def test_backfill_small_job_jumps_queue(self):
        controller = make_controller(n_nodes=4)
        controller.submit("big-running", "u", 3, duration_s=100.0,
                          time_limit_s=100.0)
        head = controller.submit("big-waiting", "u", 4, duration_s=10.0,
                                 time_limit_s=50.0)
        filler = controller.submit("filler", "u", 1, duration_s=20.0,
                                   time_limit_s=30.0)
        # head needs all 4 nodes => waits for big-running (ends ≤ t=100);
        # filler fits on the free node and ends by t=30 < 100: backfilled.
        assert head.state is JobState.PENDING
        assert filler.state is JobState.RUNNING
        controller.engine.run()
        assert head.state is JobState.COMPLETED

    def test_backfill_never_delays_head_job(self):
        controller = make_controller(n_nodes=4)
        controller.submit("running", "u", 3, duration_s=10.0,
                          time_limit_s=10.0)
        head = controller.submit("head", "u", 4, duration_s=5.0,
                                 time_limit_s=50.0)
        blocker = controller.submit("long-filler", "u", 1, duration_s=100.0,
                                    time_limit_s=100.0)
        # long-filler would hold its node past the head job's reservation
        # (t=10), so conservative backfill must NOT start it.
        assert blocker.state is JobState.PENDING
        controller.engine.run()
        assert head.start_time_s == pytest.approx(10.0)

    def test_cancel_pending_job(self):
        controller = make_controller(n_nodes=1)
        controller.submit("a", "u", 1, duration_s=10.0)
        queued = controller.submit("b", "u", 1, duration_s=10.0)
        controller.cancel(queued.job_id)
        assert queued.state is JobState.CANCELLED

    def test_cancel_running_job(self):
        controller = make_controller()
        job = controller.submit("a", "u", 1, duration_s=100.0)
        controller.engine.run(until=5.0)
        controller.cancel(job.job_id)
        controller.engine.run()
        assert job.state is JobState.CANCELLED
        assert job.end_time_s < 100.0

    def test_completion_callback_fires(self):
        controller = make_controller()
        finished = []
        controller.on_job_end.append(lambda job: finished.append(job.name))
        controller.submit("j", "u", 1, duration_s=3.0)
        controller.engine.run()
        assert finished == ["j"]

    def test_nodes_released_after_completion(self):
        controller = make_controller(n_nodes=2)
        controller.submit("j", "u", 2, duration_s=3.0)
        controller.engine.run()
        assert controller.partitions["compute"].n_idle() == 2


class TestQueries:
    def test_squeue_shows_active_jobs_only(self):
        controller = make_controller()
        controller.submit("visible", "u", 1, duration_s=50.0)
        done = controller.submit("done", "u", 1, duration_s=1.0)
        controller.engine.run(until=10.0)
        text = "\n".join(controller.squeue())
        assert "visible" in text
        assert "done" not in text

    def test_sinfo_groups_by_state(self):
        controller = make_controller(n_nodes=4)
        controller.submit("j", "u", 2, duration_s=100.0)
        text = "\n".join(controller.sinfo())
        assert "alloc" in text and "idle" in text


class TestSlurmAPI:
    def test_srun_blocks_until_done(self):
        controller = make_controller()
        api = SlurmAPI(controller)
        job = api.srun("j", "u", nodes=1, duration_s=12.0)
        assert job.state is JobState.COMPLETED
        assert api.engine.now >= 12.0

    def test_sbatch_returns_job_id(self):
        api = SlurmAPI(make_controller())
        job_id = api.sbatch("j", "u", nodes=1, duration_s=5.0)
        assert job_id == 1

    def test_sacct_filters_by_user(self):
        api = SlurmAPI(make_controller())
        api.srun("a", "alice", nodes=1, duration_s=1.0)
        api.srun("b", "bob", nodes=1, duration_s=1.0)
        rows = render_sacct(api.controller, user="alice").splitlines()[2:]
        assert [row.split()[1] for row in rows] == ["a"]

    def test_wait_all(self):
        api = SlurmAPI(make_controller())
        api.sbatch("a", "u", nodes=1, duration_s=5.0)
        api.sbatch("b", "u", nodes=1, duration_s=7.0)
        api.wait_all()
        assert all(j.state is JobState.COMPLETED
                   for j in api.controller.jobs.values())
