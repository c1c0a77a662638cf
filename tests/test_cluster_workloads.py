"""Tests for the benchmark→job bridge."""

import pytest

from repro.benchmarks.hpl import HPLConfig
from repro.benchmarks.stream import StreamConfig
from repro.cluster.cluster import MonteCimoneCluster
from repro.cluster.workloads import hpl_job, qe_lax_job, stream_job
from repro.slurm.job import JobState
from repro.thermal.enclosure import EnclosureConfig


class TestJobRequests:
    def test_hpl_job_duration_from_model(self):
        request = hpl_job(HPLConfig())
        # Single-node paper run: ~24105 s.
        assert request.duration_s == pytest.approx(24105, rel=0.03)
        assert request.n_nodes == 1
        assert request.profile.name == "hpl"

    def test_hpl_full_machine_request(self):
        request = hpl_job(HPLConfig(n_nodes=8))
        assert request.n_nodes == 8
        assert request.duration_s == pytest.approx(3548, rel=0.03)

    def test_stream_job_regime_selects_profile(self):
        ddr = stream_job(StreamConfig(array_mib=1945.5))
        l2 = stream_job(StreamConfig(array_mib=1.1))
        assert ddr.profile.name == "stream_ddr"
        assert l2.profile.name == "stream_l2"
        # The DDR run moves ~2 GB per kernel at ~1.1 GB/s: minutes, not ms.
        assert ddr.duration_s > 60.0
        assert l2.duration_s < ddr.duration_s

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
