"""Tests for the validation checklist and sacct rendering."""

import pytest

from repro.analysis.validate import (
    CLAIMS,
    CheckResult,
    render_checklist,
    run_validation,
)
from repro.cluster.cluster import MonteCimoneCluster
from repro.power.energy import JobEnergyAccounting
from repro.power.model import HPL_PROFILE
from repro.slurm.accounting import render_sacct
from repro.slurm.api import SlurmAPI
from repro.thermal.enclosure import EnclosureConfig


class TestCheckResult:
    def test_compare_within_tolerance(self):
        check = CheckResult.compare("x", measured=1.86, expected=1.85,
                                    tolerance=0.04)
        assert check.passed

    def test_compare_outside_tolerance(self):
        check = CheckResult.compare("x", measured=2.0, expected=1.85,
                                    tolerance=0.04)
        assert not check.passed


class TestClaimsLedger:
    """Each claim's bound is wired as declared; no driver runs here."""

    def test_titles_are_unique(self):
        titles = [claim.title for claim in CLAIMS]
        assert len(set(titles)) == len(titles)

    @pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.title)
    def test_bound_is_wired_as_declared(self, claim):
        assert claim.judge(claim.paper).passed
        if claim.bound == 0:
            wrong = (not claim.paper if isinstance(claim.paper, bool)
                     else claim.paper + "?")
            assert not claim.judge(wrong).passed
            return
        # 0.99 bounds away passes and 1.01 bounds away fails, both sides.
        for factor, passes in ((0.99, True), (1.01, False)):
            for step in (factor * claim.bound, -factor * claim.bound):
                value = (claim.paper * (1 + step) if claim.relative
                         else claim.paper + step)
                assert claim.judge(value).passed is passes, value


class TestValidation:
    CHECKS = run_validation(include_slow=False)

    def test_fast_set_all_pass(self):
        failing = [check.name for check in self.CHECKS if not check.passed]
        assert failing == []

    def test_fast_set_covers_every_table(self):
        names = " ".join(check.name for check in self.CHECKS)
        for fragment in ("Table I", "Table V", "Table VI", "HPL", "QE",
                         "Fig. 4", "IB"):
            assert fragment in names

    def test_checklist_rendering(self):
        text = render_checklist(self.CHECKS)
        assert text.count("[PASS]") == len(self.CHECKS)
        assert f"{len(self.CHECKS)}/{len(self.CHECKS)} checks passed" in text

    def test_cli_fast_set_passes(self, capsys):
        from repro.__main__ import main

        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert f"{len(self.CHECKS)}/{len(self.CHECKS)} checks passed" in out

    def test_failed_check_rendered_as_fail(self):
        fake = [CheckResult("broken", 1.0, 2.0, 0.1, False)]
        text = render_checklist(fake)
        assert "[FAIL] broken" in text
        assert "0/1 checks passed" in text


class TestSacct:
    @pytest.fixture
    def cluster_with_history(self):
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.mitigated())
        cluster.boot_all()
        accounting = JobEnergyAccounting(cluster.slurm)
        api = SlurmAPI(cluster.slurm)
        api.srun("hpl-full", "alice", nodes=8, duration_s=300.0,
                 profile=HPL_PROFILE)
        api.srun("qe-small", "bob", nodes=1, duration_s=40.0,
                 profile=HPL_PROFILE)
        return cluster, accounting

    def test_rows_include_energy(self, cluster_with_history):
        cluster, accounting = cluster_with_history
        text = render_sacct(cluster.slurm, accounting)
        assert "hpl-full" in text and "qe-small" in text
        assert "COMPLETED" in text
        # 8 nodes × ~5.94 W × 300 s ≈ 14.3 kJ appears in the table.
        assert "14.2" in text or "14.3" in text

    def test_user_filter(self, cluster_with_history):
        cluster, accounting = cluster_with_history
        text = render_sacct(cluster.slurm, accounting, user="bob")
        assert "qe-small" in text
        assert "hpl-full" not in text

    def test_without_energy_ledger(self, cluster_with_history):
        cluster, _accounting = cluster_with_history
        text = render_sacct(cluster.slurm)
        assert "--" in text  # energy columns blank

    def test_empty_history(self):
        cluster = MonteCimoneCluster(
            enclosure_config=EnclosureConfig.mitigated())
        cluster.boot_all()
        assert "(no finished jobs)" in render_sacct(cluster.slurm)

    def test_elapsed_format(self, cluster_with_history):
        cluster, accounting = cluster_with_history
        text = render_sacct(cluster.slurm, accounting)
        assert "00:05:00" in text  # the 300 s job
