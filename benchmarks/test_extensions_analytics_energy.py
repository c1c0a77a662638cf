"""Extension benches: ODA anomaly detection and per-job energy accounting.

Quantifies two capabilities the paper motivates but does not measure:
how early the ExaMon analytics flag the Fig. 6 runaway, and the
energy-to-solution ledger for the §V-A benchmark set.  The ledger is also
checked against an account it does not share code with: the Table VI
rail powers of the power model, times the nodes and the wall time SLURM
records for the job.
"""

import pytest

from repro.analysis import paper
from repro.cluster.cluster import MonteCimoneCluster
from repro.cluster.workloads import qe_lax_job
from repro.examon.analytics import scan_cluster_temperatures
from repro.examon.deployment import ExamonDeployment
from repro.power.energy import JobEnergyAccounting
from repro.power.model import (
    HPL_PROFILE,
    STREAM_DDR_PROFILE,
    NodePhase,
    RailPowerModel,
)
from repro.slurm.api import SlurmAPI
from repro.thermal.enclosure import EnclosureConfig


@pytest.fixture(scope="module")
def developing_runaway():
    """The Fig. 6 scenario paused at 8 minutes — hot, not yet tripped."""
    cluster = MonteCimoneCluster(enclosure_config=EnclosureConfig.original())
    cluster.boot_all()
    deployment = ExamonDeployment(cluster)
    deployment.start()
    api = SlurmAPI(cluster.slurm)
    start = cluster.engine.now
    api.sbatch("hpl", "bench", nodes=8, duration_s=1800.0,
               profile=HPL_PROFILE)
    cluster.run_for(480.0)
    return cluster, deployment, start


def test_analytics_flag_node7_before_the_trip(benchmark, developing_runaway):
    cluster, deployment, start = developing_runaway
    anomalies = benchmark(
        scan_cluster_temperatures, deployment.db, list(cluster.nodes),
        start, cluster.engine.now)
    assert cluster.watchdog.tripped_nodes() == []   # not tripped yet...
    node7 = [a for a in anomalies if a.subject == "mc-node-7"]
    assert node7                                     # ...but already flagged
    # The trend detector predicts the 107 °C crossing ahead of time.
    trends = [a for a in node7 if a.kind == "trend"]
    outliers = [a for a in node7 if a.kind == "outlier"]
    assert trends or outliers


def test_energy_to_solution_ledger(benchmark):
    def run():
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.mitigated())
        cluster.boot_all()
        accounting = JobEnergyAccounting(cluster.slurm)
        api = SlurmAPI(cluster.slurm)
        qe = qe_lax_job()
        job = api.srun(qe.name, "bench", nodes=1,
                       duration_s=qe.duration_s, profile=qe.profile)
        return accounting.record_for(job.job_id)

    record = benchmark(run)
    # One node at the QE power level (~5.67 W, Table VI) for ~37.4 s.
    expected = paper.QE_LAX["runtime_s"] * 5.670
    assert record.energy_j == pytest.approx(expected, rel=0.07)
    assert record.mean_power_w == pytest.approx(5.67, rel=0.05)


def test_hpl_full_machine_energy(benchmark):
    """Energy for the 8-node HPL: ~8 × 5.935 W × 3548 s ≈ 168 kJ scaled
    to the simulated (shortened) run — the per-second power is what is
    asserted; the paper-scale energy is the product."""
    def run():
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.mitigated())
        cluster.boot_all()
        accounting = JobEnergyAccounting(cluster.slurm)
        api = SlurmAPI(cluster.slurm)
        job = api.srun("hpl", "bench", nodes=8, duration_s=600.0,
                       profile=HPL_PROFILE)
        return accounting.record_for(job.job_id)

    record = benchmark(run)
    assert record.mean_power_w == pytest.approx(8 * 5.935, rel=0.05)
    # Extrapolated to the paper's 3548 s full-machine runtime:
    paper_scale_kj = record.mean_power_w * 3548.0 / 1e3
    assert paper_scale_kj == pytest.approx(168.0, rel=0.08)


@pytest.mark.parametrize("offset_s", [0.0, 0.4],
                         ids=["on-tick", "between-ticks"])
def test_ledger_conserves_rail_energy(offset_s):
    """Each job's per-rail energy is nodes × rail power × elapsed time.

    The HPL job takes the whole machine, and the STREAM.DDR job waits for
    it.  They start on a watchdog tick, or 0.4 s after one, so the idle
    time before the start is not the job's.  Nothing throttles on the
    mitigated machine, so every allocated node holds the model's R3
    power for the profile over the whole job.
    """
    cluster = MonteCimoneCluster(
        enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    accounting = JobEnergyAccounting(cluster.slurm)
    cluster.run_for(10.0 + offset_s)
    jobs = [cluster.slurm.submit(name, "bench", n_nodes=n_nodes,
                                 duration_s=duration_s, profile=profile)
            for name, n_nodes, duration_s, profile in (
                ("hpl", 8, 100.0, HPL_PROFILE),
                ("stream", 1, 30.0, STREAM_DDR_PROFILE))]
    SlurmAPI(cluster.slurm).wait_all()
    model = RailPowerModel()
    for job in jobs:
        record = accounting.record_for(job.job_id)
        powers = model.rail_powers_w(NodePhase.R3_OS, job.profile)
        assert sorted(record.per_rail_j) == sorted(powers)
        for rail, energy_j in record.per_rail_j.items():
            expected = job.n_nodes * powers[rail] * job.elapsed_s
            assert energy_j == pytest.approx(expected, rel=1e-12), \
                (job.name, rail)
        assert record.energy_j == sum(record.per_rail_j.values())
