"""Integration tests: the full machine, ExaMon, scheduler and thermal story.

These run multi-minute (simulated) scenarios on the assembled cluster and
assert the cross-cutting behaviours that no unit test can see.
"""

import pytest

from repro.cluster.cluster import MonteCimoneCluster
from repro.cluster.node import NodeState
from repro.examon.deployment import ExamonDeployment
from repro.power.model import HPL_PROFILE, STREAM_DDR_PROFILE
from repro.slurm.api import SlurmAPI
from repro.slurm.job import JobState
from repro.thermal.enclosure import EnclosureConfig


@pytest.fixture
def mitigated_cluster():
    cluster = MonteCimoneCluster(enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    return cluster


class TestClusterBoot:
    def test_all_eight_nodes_boot_to_idle(self, mitigated_cluster):
        states = [node.state for node in mitigated_cluster.nodes.values()]
        assert all(state is NodeState.IDLE for state in states)

    def test_boot_takes_21_simulated_seconds(self, mitigated_cluster):
        assert mitigated_cluster.engine.now == pytest.approx(21.0)

    def test_idle_cluster_power_is_8x_node_idle(self, mitigated_cluster):
        assert mitigated_cluster.total_power_w() == pytest.approx(8 * 4.810,
                                                                  abs=0.2)

    def test_two_nodes_have_infiniband(self, mitigated_cluster):
        with_ib = [name for name, node in mitigated_cluster.nodes.items()
                   if node.board.infiniband is not None]
        assert with_ib == ["mc-node-1", "mc-node-2"]

    def test_services_configured(self, mitigated_cluster):
        assert mitigated_cluster.nfs.is_exported("/home")
        assert mitigated_cluster.nfs.is_exported("/opt/spack")
        mitigated_cluster.ldap.add_user("alice", "pw", "hpc-users")
        assert mitigated_cluster.ldap.bind("alice", "pw").uid == "alice"


class TestJobExecution:
    def test_full_machine_job_completes(self, mitigated_cluster):
        api = SlurmAPI(mitigated_cluster.slurm)
        job = api.srun("hpl", "alice", 8, duration_s=120.0,
                       profile=HPL_PROFILE)
        assert job.state is JobState.COMPLETED
        assert len(job.allocated_nodes) == 8

    def test_power_rises_during_job(self, mitigated_cluster):
        api = SlurmAPI(mitigated_cluster.slurm)
        api.sbatch("hpl", "alice", nodes=8, duration_s=300.0,
                   profile=HPL_PROFILE)
        mitigated_cluster.run_for(30.0)
        # All 8 nodes under HPL: ~8 × 5.935 W.
        assert mitigated_cluster.total_power_w() == pytest.approx(8 * 5.935,
                                                                  rel=0.03)

    def test_concurrent_jobs_share_the_machine(self, mitigated_cluster):
        api = SlurmAPI(mitigated_cluster.slurm)
        first = api.sbatch("hpl", "alice", nodes=4, duration_s=60.0,
                           profile=HPL_PROFILE)
        second = api.sbatch("stream", "bob", nodes=4, duration_s=60.0,
                            profile=STREAM_DDR_PROFILE)
        api.wait_all()
        jobs = mitigated_cluster.slurm.jobs
        assert jobs[first].state is JobState.COMPLETED
        assert jobs[second].state is JobState.COMPLETED
        # They ran concurrently: disjoint node sets.
        assert not set(jobs[first].allocated_nodes) & \
            set(jobs[second].allocated_nodes)


class TestThermalStory:
    """The Fig. 6 narrative, end to end."""

    def test_runaway_and_mitigation(self):
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.original())
        cluster.boot_all()
        api = SlurmAPI(cluster.slurm)
        job = api.srun("hpl", "bench", 8, duration_s=1800.0,
                       profile=HPL_PROFILE)
        # Node 7 runs away and the job dies with a node failure.
        assert job.state is JobState.NODE_FAIL
        assert cluster.watchdog.tripped_nodes() == ["mc-node-7"]
        assert cluster.nodes["mc-node-7"].state is NodeState.TRIPPED
        # The scheduler marked the node down.
        sinfo = "\n".join(cluster.slurm.sinfo())
        assert "down" in sinfo
        # Mitigate, service, rerun: completes, hottest node ≈ 39 °C.
        cluster.apply_thermal_mitigation()
        cluster.service_node("mc-node-7")
        retry = api.srun("hpl-retry", "bench", 8, duration_s=1800.0,
                         profile=HPL_PROFILE)
        assert retry.state is JobState.COMPLETED
        _host, temperature = cluster.hottest_node()
        assert temperature < 45.0

    def test_no_runaway_with_mitigated_enclosure(self, mitigated_cluster):
        api = SlurmAPI(mitigated_cluster.slurm)
        job = api.srun("hpl", "bench", 8, duration_s=1800.0,
                       profile=HPL_PROFILE)
        assert job.state is JobState.COMPLETED
        assert mitigated_cluster.watchdog.tripped_nodes() == []


class TestExamonIntegration:
    def test_plugins_feed_the_database(self, mitigated_cluster):
        deployment = ExamonDeployment(mitigated_cluster)
        deployment.start()
        mitigated_cluster.run_for(30.0)
        # 8 nodes × (2 Hz pmu + 0.2 Hz stats) for 30 s: thousands of points.
        assert deployment.db.points_stored > 1000
        assert deployment.db.decode_errors == 0

    def test_heatmap_shows_hpl_phases(self, mitigated_cluster):
        deployment = ExamonDeployment(mitigated_cluster)
        deployment.start()
        api = SlurmAPI(mitigated_cluster.slurm)
        start = mitigated_cluster.engine.now
        api.srun("hpl", "bench", 8, duration_s=120.0, profile=HPL_PROFILE)
        end = mitigated_cluster.engine.now
        heatmap = deployment.dashboard.instructions_heatmap(start, end, 10.0)
        means = [heatmap.node_mean(h) for h in mitigated_cluster.nodes]
        assert all(m > 1e9 for m in means)  # GHz-scale instruction rates

    def test_network_heatmap_nonzero_for_multi_node_job(self, mitigated_cluster):
        deployment = ExamonDeployment(mitigated_cluster)
        deployment.start()
        api = SlurmAPI(mitigated_cluster.slurm)
        start = mitigated_cluster.engine.now
        api.srun("hpl", "bench", 8, duration_s=120.0, profile=HPL_PROFILE)
        end = mitigated_cluster.engine.now
        heatmap = deployment.dashboard.network_heatmap(start, end, 10.0)
        assert heatmap.node_mean("mc-node-1") > 1e6  # MB/s-scale traffic

    def test_rest_api_serves_cluster_data(self, mitigated_cluster):
        deployment = ExamonDeployment(mitigated_cluster)
        deployment.start()
        mitigated_cluster.run_for(20.0)
        topics = deployment.rest.get("/api/topics",
                                     {"pattern": "org/#"})
        assert len(topics) > 100

    def test_monitoring_overhead_summary(self, mitigated_cluster):
        deployment = ExamonDeployment(mitigated_cluster)
        deployment.start()
        mitigated_cluster.run_for(10.0)
        overhead = deployment.monitoring_overhead_summary()
        assert overhead["messages_published"] == \
            overhead["messages_delivered"]
        assert overhead["bytes_published"] > 0

    def test_stop_halts_sampling(self, mitigated_cluster):
        deployment = ExamonDeployment(mitigated_cluster)
        deployment.start()
        mitigated_cluster.run_for(10.0)
        deployment.stop()
        mitigated_cluster.run_for(2.0)  # let daemons observe the stop flag
        count = deployment.db.points_stored
        mitigated_cluster.run_for(20.0)
        assert deployment.db.points_stored == count
