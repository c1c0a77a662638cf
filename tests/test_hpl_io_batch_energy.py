"""Tests for sbatch parsing and energy accounting."""

import pytest

from repro.cluster.cluster import MonteCimoneCluster
from repro.power.energy import JobEnergyAccounting
from repro.power.model import HPL_PROFILE, IDLE_PROFILE
from repro.slurm.api import SlurmAPI
from repro.slurm.batch_script import (
    parse_batch_script,
    parse_time_limit,
)
from repro.thermal.enclosure import EnclosureConfig


class TestTimeLimit:
    @pytest.mark.parametrize("text,seconds", [
        ("90", 5400.0),            # bare minutes
        ("30:00", 1800.0),         # MM:SS
        ("02:00:00", 7200.0),      # HH:MM:SS
        ("1-12:00:00", 129600.0),  # days-HH:MM:SS
        ("2-00", 172800.0),        # days-HH
    ])
    def test_accepted_forms(self, text, seconds):
        assert parse_time_limit(text) == seconds

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_time_limit("soon")
        with pytest.raises(ValueError):
            parse_time_limit("1:2:3:4")


class TestBatchScript:
    SCRIPT = """#!/bin/bash
#SBATCH --job-name=hpl-full
#SBATCH -N 8
#SBATCH --time=06:00:00
#SBATCH --partition compute
#SBATCH --mail-type=END

module load hpl/2.3
srun xhpl
"""

    def test_directives_parsed(self):
        script = parse_batch_script(self.SCRIPT)
        assert script.job_name == "hpl-full"
        assert script.n_nodes == 8
        assert script.time_limit_s == 6 * 3600.0
        assert script.partition == "compute"

    def test_unknown_directives_collected(self):
        script = parse_batch_script(self.SCRIPT)
        assert script.unknown_directives == ["--mail-type=END"]

    def test_command_lines_extracted(self):
        script = parse_batch_script(self.SCRIPT)
        assert script.command_lines == ["module load hpl/2.3", "srun xhpl"]

    def test_needs_shebang(self):
        with pytest.raises(ValueError, match="shebang"):
            parse_batch_script("#SBATCH -N 2\n")

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            parse_batch_script("#!/bin/bash\n#SBATCH -N 0\n")

    def test_directive_missing_value(self):
        with pytest.raises(ValueError):
            parse_batch_script("#!/bin/bash\n#SBATCH --nodes\n")


class TestJobEnergyAccounting:
    @pytest.fixture
    def cluster(self):
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.mitigated())
        cluster.boot_all()
        return cluster

    def test_hpl_job_energy(self, cluster):
        accounting = JobEnergyAccounting(cluster.slurm)
        api = SlurmAPI(cluster.slurm)
        job = api.srun("hpl", "alice", nodes=8, duration_s=600.0,
                       profile=HPL_PROFILE)
        record = accounting.record_for(job.job_id)
        assert record is not None
        # 8 nodes × ~5.94 W × 600 s ≈ 28.5 kJ.
        assert record.energy_j == pytest.approx(8 * 5.94 * 600.0, rel=0.05)
        assert record.mean_power_w == pytest.approx(8 * 5.94, rel=0.05)

    def test_idle_profile_job_uses_less_energy(self, cluster):
        accounting = JobEnergyAccounting(cluster.slurm)
        api = SlurmAPI(cluster.slurm)
        busy = api.srun("busy", "a", nodes=4, duration_s=300.0,
                        profile=HPL_PROFILE)
        quiet = api.srun("quiet", "a", nodes=4, duration_s=300.0,
                         profile=IDLE_PROFILE)
        busy_record = accounting.record_for(busy.job_id)
        quiet_record = accounting.record_for(quiet.job_id)
        assert busy_record.energy_j > quiet_record.energy_j

    def test_per_rail_breakdown_sums_to_total(self, cluster):
        accounting = JobEnergyAccounting(cluster.slurm)
        api = SlurmAPI(cluster.slurm)
        job = api.srun("hpl", "a", nodes=2, duration_s=120.0,
                       profile=HPL_PROFILE)
        record = accounting.record_for(job.job_id)
        assert sum(record.per_rail_j.values()) == pytest.approx(
            record.energy_j)
        assert record.per_rail_j["core"] > record.per_rail_j["ddr_mem"]

    def test_total_energy_filters_by_user(self, cluster):
        accounting = JobEnergyAccounting(cluster.slurm)
        api = SlurmAPI(cluster.slurm)
        api.srun("a", "alice", nodes=2, duration_s=60.0, profile=HPL_PROFILE)
        api.srun("b", "bob", nodes=2, duration_s=60.0, profile=HPL_PROFILE)
        assert accounting.total_energy_j("alice") < \
            accounting.total_energy_j()
        assert accounting.total_energy_j("alice") > 0
