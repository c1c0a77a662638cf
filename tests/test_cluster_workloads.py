"""Tests for the benchmark→job bridge."""

import pytest

from repro.cluster.cluster import MonteCimoneCluster
from repro.cluster.workloads import qe_lax_job
from repro.slurm.job import JobState
from repro.thermal.enclosure import EnclosureConfig


class TestJobRequests:
    def test_qe_job_matches_paper_duration(self):
        request = qe_lax_job()
        assert request.duration_s == pytest.approx(37.4, abs=0.5)


class TestEndToEndSubmission:
    def test_qe_job_runs_on_the_cluster(self):
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.mitigated())
        cluster.boot_all()
        request = qe_lax_job()
        job = cluster.slurm.submit(
            name=request.name, user="alice", n_nodes=request.n_nodes,
            duration_s=request.duration_s, profile=request.profile)
        cluster.engine.run(until=cluster.engine.now + 100.0)
        assert job.state is JobState.COMPLETED
        assert job.elapsed_s == pytest.approx(request.duration_s, abs=1.5)
