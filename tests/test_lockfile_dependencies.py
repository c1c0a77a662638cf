"""Tests for SLURM job dependencies."""

import pytest

from repro.slurm.job import JobState
from tests.test_slurm import make_controller


class TestJobDependencies:
    def test_afterok_waits_for_parent(self):
        controller = make_controller(n_nodes=4)
        parent = controller.submit("parent", "u", 1, duration_s=10.0)
        child = controller.submit("child", "u", 1, duration_s=5.0,
                                  depends_on=[parent.job_id])
        # Nodes are free, but the child must hold for its dependency.
        assert parent.state is JobState.RUNNING
        assert child.state is JobState.PENDING
        controller.engine.run()
        assert child.state is JobState.COMPLETED
        assert child.start_time_s >= parent.end_time_s

    def test_failed_parent_cancels_child(self):
        controller = make_controller(n_nodes=1)
        parent = controller.submit("parent", "u", 1, duration_s=100.0,
                                   time_limit_s=10.0)  # will TIMEOUT
        child = controller.submit("child", "u", 1, duration_s=5.0,
                                  depends_on=[parent.job_id])
        controller.engine.run()
        assert parent.state is JobState.TIMEOUT
        assert child.state is JobState.CANCELLED
        assert child.exit_reason == "DependencyNeverSatisfied"

    def test_held_job_does_not_block_the_queue(self):
        controller = make_controller(n_nodes=2)
        parent = controller.submit("parent", "u", 1, duration_s=50.0)
        held = controller.submit("held", "u", 1, duration_s=5.0,
                                 depends_on=[parent.job_id])
        independent = controller.submit("indep", "u", 1, duration_s=5.0)
        # The held job must not stop the independent one from starting.
        assert independent.state is JobState.RUNNING
        controller.engine.run()
        assert held.state is JobState.COMPLETED

    def test_dependency_chain(self):
        controller = make_controller(n_nodes=4)
        a = controller.submit("a", "u", 1, duration_s=5.0)
        b = controller.submit("b", "u", 1, duration_s=5.0,
                              depends_on=[a.job_id])
        c = controller.submit("c", "u", 1, duration_s=5.0,
                              depends_on=[b.job_id])
        controller.engine.run()
        assert a.end_time_s <= b.start_time_s
        assert b.end_time_s <= c.start_time_s

    def test_unknown_dependency_rejected(self):
        controller = make_controller()
        with pytest.raises(KeyError):
            controller.submit("x", "u", 1, duration_s=1.0, depends_on=[99])

    def test_multiple_dependencies_all_required(self):
        controller = make_controller(n_nodes=4)
        a = controller.submit("a", "u", 1, duration_s=5.0)
        b = controller.submit("b", "u", 1, duration_s=20.0)
        child = controller.submit("child", "u", 1, duration_s=2.0,
                                  depends_on=[a.job_id, b.job_id])
        controller.engine.run()
        assert child.start_time_s >= b.end_time_s
