"""Tests for the Grafana dashboard export and the job-trace machinery."""

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import MonteCimoneCluster
from repro.events.engine import Engine
from repro.examon.grafana import (
    build_cluster_dashboard,
    build_thermal_dashboard,
    export_dashboard,
)
from repro.power.model import HPL_PROFILE, QE_PROFILE
from repro.slurm.job import JobState
from repro.slurm.partition import Partition, SlurmNodeInfo
from repro.slurm.scheduler import SlurmController
from repro.slurm.trace import TraceEntry, generate_trace, replay_trace
from repro.thermal.enclosure import EnclosureConfig

HOSTS = [f"mc-node-{i}" for i in range(1, 9)]


class TestGrafanaDashboards:
    def test_cluster_dashboard_has_three_fig5_panels(self):
        dashboard = build_cluster_dashboard(HOSTS)
        titles = [panel["title"] for panel in dashboard["panels"]]
        assert titles == ["Instructions/s per node",
                          "Network traffic per node",
                          "Memory usage per node"]

    def test_instruction_panel_targets_every_core(self):
        dashboard = build_cluster_dashboard(HOSTS, n_cores=4)
        targets = dashboard["panels"][0]["targets"]
        assert len(targets) == 8 * 4
        assert all(t["endpoint"] == "/api/rate" for t in targets)
        assert any("mc-node-7" in t["params"]["topic"] for t in targets)

    def test_thermal_dashboard_trip_threshold(self):
        dashboard = build_thermal_dashboard(HOSTS)
        steps = dashboard["panels"][0]["fieldConfig"]["defaults"][
            "thresholds"]["steps"]
        assert steps[-1] == {"color": "red", "value": 107.0}

    def test_panels_do_not_overlap_vertically(self):
        dashboard = build_cluster_dashboard(HOSTS)
        y_positions = [p["gridPos"]["y"] for p in dashboard["panels"]]
        assert y_positions == sorted(set(y_positions))

    def test_export_is_valid_stable_json(self):
        dashboard = build_cluster_dashboard(HOSTS)
        blob = export_dashboard(dashboard)
        assert json.loads(blob) == dashboard
        assert export_dashboard(build_cluster_dashboard(HOSTS)) == blob


def make_controller(n_nodes=8):
    controller = SlurmController(Engine())
    partition = Partition(name="compute", max_time_s=1e9, default=True)
    for i in range(n_nodes):
        partition.add_node(SlurmNodeInfo(hostname=f"n{i}"))
    controller.add_partition(partition)
    return controller


class TestTraceGeneration:
    def test_deterministic_in_seed(self):
        assert generate_trace(10, 3600.0, seed=1) == \
            generate_trace(10, 3600.0, seed=1)
        assert generate_trace(10, 3600.0, seed=1) != \
            generate_trace(10, 3600.0, seed=2)

    def test_submission_times_sorted_within_horizon(self):
        trace = generate_trace(30, 7200.0)
        times = [entry.submit_time_s for entry in trace]
        assert times == sorted(times)
        assert all(0.0 <= t <= 7200.0 for t in times)

    def test_mix_contains_all_three_workloads(self):
        trace = generate_trace(60, 3600.0)
        kinds = {entry.name.split("-")[0] for entry in trace}
        assert kinds == {"hpl", "stream", "qe"}

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_trace(0, 3600.0)
        with pytest.raises(ValueError):
            generate_trace(5, -1.0)


class TestTraceReplay:
    def test_all_jobs_complete(self):
        controller = make_controller()
        trace = generate_trace(15, 1800.0, seed=3)
        report = replay_trace(controller, trace)
        assert report.n_jobs == 15
        assert report.completed == 15
        assert report.failed == 0

    def test_utilisation_bounded(self):
        controller = make_controller()
        report = replay_trace(controller, generate_trace(15, 1800.0))
        assert 0.0 < report.utilisation <= 1.0

    def test_makespan_at_least_horizon_tail(self):
        controller = make_controller()
        trace = generate_trace(10, 1000.0, seed=5)
        report = replay_trace(controller, trace)
        last = max(e.submit_time_s for e in trace)
        assert report.makespan_s >= last

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            replay_trace(make_controller(), [])

    def test_per_user_counts_sum(self):
        controller = make_controller()
        report = replay_trace(controller, generate_trace(12, 1800.0))
        assert sum(report.per_user_jobs.values()) == 12

    def test_replay_stops_at_the_first_step_every_job_is_terminal(self):
        # The first job is requeued after a node trip while the two jobs
        # submitted after it have finished: REQUEUED is not terminal, so
        # the replay must run on until that job's second attempt ends,
        # and stop at that very step.
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.mitigated())
        cluster.boot_all()
        controller, engine = cluster.slurm, cluster.engine
        submit = controller.submit
        controller.submit = functools.partial(submit, requeue=True)
        trace = [TraceEntry(0.0, "long", "alice", 1, 600.0, HPL_PROFILE),
                 TraceEntry(10.0, "short-1", "bob", 1, 60.0, QE_PROFILE),
                 TraceEntry(20.0, "short-2", "bob", 1, 60.0, QE_PROFILE)]
        start = engine.now

        def trip_the_long_job():
            long_job = controller.jobs[min(controller.jobs)]
            cluster.inject_node_failure(long_job.allocated_nodes[0])

        engine.call_at(start + 150.0, trip_the_long_job)
        settled_after_step = []
        step = engine.step

        def recording_step():
            step()
            jobs = controller.jobs.values()
            settled_after_step.append(
                len(jobs) == len(trace)
                and all(job.state.is_terminal for job in jobs))

        engine.step = recording_step
        report = replay_trace(controller, trace)
        long_job = controller.jobs[min(controller.jobs)]
        assert long_job.restart_count == 1
        assert long_job.state is JobState.COMPLETED
        assert report.completed == 3
        assert settled_after_step[-1]
        assert not any(settled_after_step[:-1])

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_replay_invariants_across_seeds(self, seed):
        """Property: any seeded trace replays to full completion."""
        controller = make_controller()
        report = replay_trace(controller,
                              generate_trace(8, 1200.0, seed=seed))
        assert report.completed == report.n_jobs
        assert report.mean_wait_s <= report.max_wait_s
