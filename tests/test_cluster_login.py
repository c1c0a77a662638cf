"""Tests for the login node and user sessions."""

import pytest

from repro.cluster.cluster import MonteCimoneCluster
from repro.cluster.login import LoginNode
from repro.cluster.services.ldap import AuthenticationError
from repro.power.model import HPL_PROFILE
from repro.slurm.job import JobState
from repro.spack.environment import SpackEnvironment
from repro.spack.installer import Installer
from repro.thermal.enclosure import EnclosureConfig


@pytest.fixture
def login_setup():
    cluster = MonteCimoneCluster(enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    cluster.ldap.add_user("alice", "s3cret", "hpc-users")
    installer = Installer(nfs=cluster.nfs, modules=cluster.modules)
    SpackEnvironment.monte_cimone().install(installer)
    login = LoginNode(ldap=cluster.ldap, nfs=cluster.nfs,
                      modules=cluster.modules, controller=cluster.slurm)
    return cluster, login


class TestAuthentication:
    def test_successful_login_opens_session(self, login_setup):
        _cluster, login = login_setup
        session = login.ssh("alice", "s3cret")
        assert session.user.uid == "alice"
        assert "alice" in login.active_sessions

    def test_bad_password_recorded(self, login_setup):
        _cluster, login = login_setup
        with pytest.raises(AuthenticationError):
            login.ssh("alice", "wrong")
        assert login.failed_logins == ["alice"]
        assert "alice" not in login.active_sessions

    def test_home_directory_provisioned_on_first_login(self, login_setup):
        cluster, login = login_setup
        login.ssh("alice", "s3cret")
        assert cluster.nfs.exists("/home/alice")
        assert cluster.nfs.exists("/home/alice/jobs")


class TestUserSession:
    def test_home_io_through_nfs(self, login_setup):
        cluster, login = login_setup
        session = login.ssh("alice", "s3cret")
        session.write_file("notes.txt", b"N=40704 NB=192")
        # The bytes physically live on the master's NFS server.
        assert cluster.nfs.read("/home/alice/notes.txt") == b"N=40704 NB=192"

    def test_modules_visible_in_session(self, login_setup):
        _cluster, login = login_setup
        session = login.ssh("alice", "s3cret")
        assert "hpl/2.3" in session.modules.avail("hpl")
        session.modules.load("hpl/2.3")

    def test_sbatch_from_session_runs_job(self, login_setup):
        cluster, login = login_setup
        session = login.ssh("alice", "s3cret")
        script = ("#!/bin/bash\n"
                  "#SBATCH --job-name=session-hpl\n"
                  "#SBATCH -N 2\n"
                  "srun xhpl\n")
        job_id = session.sbatch(script, duration_s=120.0,
                                profile=HPL_PROFILE)
        job = cluster.slurm.jobs[job_id]
        assert job.user == "alice"
        session.slurm.wait_all()
        assert job.state is JobState.COMPLETED

    def test_script_archived_in_home(self, login_setup):
        cluster, login = login_setup
        session = login.ssh("alice", "s3cret")
        script = "#!/bin/bash\n#SBATCH -N 1\nsrun true\n"
        session.sbatch(script, duration_s=5.0)
        jobs_dir = cluster.nfs.listdir("/home/alice/jobs")
        assert any(name.startswith("script-") for name in jobs_dir)

    def test_history_records_commands(self, login_setup):
        _cluster, login = login_setup
        session = login.ssh("alice", "s3cret")
        session.write_file("x", b"y")
        assert "write x" in session.history
