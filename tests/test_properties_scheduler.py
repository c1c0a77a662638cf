"""Property-based tests: scheduler invariants under random job streams.

hypothesis drives random job mixes through the controller and checks the
invariants any workload manager must hold: no node double-allocated, all
jobs eventually terminal, FIFO fairness for equal-size jobs, and the
accounting identities (wait/elapsed nonnegative).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.engine import Engine
from repro.slurm.job import JobState
from repro.slurm.partition import NodeAllocState, Partition, SlurmNodeInfo
from repro.slurm.scheduler import SlurmController


def build_controller(n_nodes: int) -> SlurmController:
    controller = SlurmController(Engine())
    partition = Partition(name="compute", max_time_s=1e9, default=True)
    for i in range(n_nodes):
        partition.add_node(SlurmNodeInfo(hostname=f"n{i:02d}"))
    controller.add_partition(partition)
    return controller


job_stream = st.lists(
    st.tuples(st.integers(min_value=1, max_value=4),     # nodes
              st.floats(min_value=0.5, max_value=50.0)),  # duration
    min_size=1, max_size=15)


@given(jobs=job_stream)
@settings(max_examples=40, deadline=None)
def test_all_jobs_reach_terminal_state(jobs):
    controller = build_controller(n_nodes=4)
    for i, (nodes, duration) in enumerate(jobs):
        controller.submit(f"j{i}", "u", nodes, duration_s=duration)
    controller.engine.run()
    assert all(job.state is JobState.COMPLETED
               for job in controller.jobs.values())


@given(jobs=job_stream)
@settings(max_examples=40, deadline=None)
def test_no_node_ever_double_allocated(jobs):
    controller = build_controller(n_nodes=4)
    for i, (nodes, duration) in enumerate(jobs):
        controller.submit(f"j{i}", "u", nodes, duration_s=duration)
    partition = controller.partitions["compute"]
    while controller.engine.queue_depth:
        controller.engine.step()
        running = [job for job in controller.jobs.values()
                   if job.state is JobState.RUNNING]
        # Invariant 1: disjoint allocations.
        allocated = [h for job in running for h in job.allocated_nodes]
        assert len(allocated) == len(set(allocated))
        # Invariant 2: node records agree with job allocations.
        for info in partition.nodes.values():
            if info.state is NodeAllocState.ALLOCATED:
                assert any(info.hostname in job.allocated_nodes
                           for job in running)


@given(jobs=job_stream)
@settings(max_examples=40, deadline=None)
def test_accounting_identities(jobs):
    controller = build_controller(n_nodes=4)
    for i, (nodes, duration) in enumerate(jobs):
        controller.submit(f"j{i}", "u", nodes, duration_s=duration)
    controller.engine.run()
    for job in controller.jobs.values():
        assert job.wait_time_s is not None and job.wait_time_s >= 0
        assert job.elapsed_s is not None
        # Jobs run for (at least) their modelled duration, quantised to
        # the 1 s execution slices.
        assert job.elapsed_s >= job.duration_s - 1e-9
        assert job.elapsed_s <= job.duration_s + 1.0


@given(durations=st.lists(st.floats(min_value=1.0, max_value=30.0),
                          min_size=2, max_size=8))
@settings(max_examples=40, deadline=None)
def test_fifo_order_for_full_machine_jobs(durations):
    """Equal-size (full-machine) jobs must start strictly in submit order."""
    controller = build_controller(n_nodes=4)
    submitted = [controller.submit(f"j{i}", "u", 4, duration_s=d)
                 for i, d in enumerate(durations)]
    controller.engine.run()
    start_times = [job.start_time_s for job in submitted]
    assert start_times == sorted(start_times)
