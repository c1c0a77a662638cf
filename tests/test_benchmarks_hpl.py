"""Tests for the HPL model — the Fig. 2 / §V-A reproduction."""

import pytest

from repro.analysis.validate import CLAIMS
from repro.benchmarks.hpl import HPLConfig, HPLModel
from repro.hardware.specs import MARCONI100_NODE, MONTE_CIMONE_NODE


def assert_claim_holds(title: str, measured: float) -> None:
    """Judge one model output against its claim in the claims ledger.

    The paper value and its bound are declared once, in ``CLAIMS``; these
    unit tests feed the model's own run through that claim, so a model
    regression fails here under the claim's name.
    """
    check = next(claim for claim in CLAIMS
                 if claim.title == title).judge(measured)
    assert check.passed, check


class TestHPLConfig:
    def test_paper_defaults(self):
        config = HPLConfig()
        assert config.n == 40704
        assert config.nb == 192
        assert config.ranks_per_node == 4

    def test_flop_count_formula(self):
        config = HPLConfig(n=1000, nb=100)
        assert config.flops == pytest.approx(2 / 3 * 1e9 + 2e6)

    def test_panel_count(self):
        assert HPLConfig().n_panels == 212

    def test_validation(self):
        with pytest.raises(ValueError):
            HPLConfig(n=0)
        with pytest.raises(ValueError):
            HPLConfig(n=100, nb=200)
        with pytest.raises(ValueError):
            HPLConfig(n_nodes=0)

    def test_matrix_fills_most_of_node_dram(self):
        # N=40704 doubles ≈ 13.3 GB of the 16 GB node.
        assert HPLConfig().matrix_bytes == pytest.approx(13.25e9, rel=0.01)


class TestSingleNode:
    RESULT = HPLModel().run()

    def test_gflops_matches_paper(self):
        assert_claim_holds("§V-A HPL 1-node gflops", self.RESULT.gflops.mean)

    def test_efficiency_46_5_percent(self):
        assert_claim_holds("§V-A HPL 1-node fraction_of_peak",
                           self.RESULT.efficiency)

    def test_runtime_near_24105_s(self):
        assert_claim_holds("§V-A HPL 1-node runtime_s",
                           self.RESULT.runtime_s.mean)

    def test_no_communication_single_node(self):
        assert self.RESULT.comm_time_s == 0.0

    def test_ten_repetitions(self):
        assert self.RESULT.gflops.n_runs == 10

    def test_deterministic_given_seed(self):
        again = HPLModel().run()
        assert again.gflops.mean == self.RESULT.gflops.mean
        assert again.gflops.samples == self.RESULT.gflops.samples


class TestStrongScaling:
    POINTS = HPLModel().strong_scaling()

    def test_full_machine_gflops(self):
        assert_claim_holds("Fig. 2 HPL 8-node gflops",
                           self.POINTS[8].gflops.mean)

    def test_full_machine_efficiency_39_5_percent(self):
        assert_claim_holds("Fig. 2 HPL 8-node fraction_of_peak",
                           self.POINTS[8].efficiency)

    def test_fraction_of_linear_85_percent(self):
        speedup = self.POINTS[8].gflops.mean / self.POINTS[1].gflops.mean
        assert_claim_holds("Fig. 2 HPL 8-node fraction_of_linear",
                           speedup / 8)

    def test_full_machine_runtime(self):
        assert_claim_holds("Fig. 2 HPL 8-node runtime_s",
                           self.POINTS[8].runtime_s.mean)

    def test_scaling_is_monotone(self):
        gflops = [self.POINTS[n].gflops.mean for n in (1, 2, 4, 8)]
        assert gflops == sorted(gflops)

    def test_efficiency_degrades_with_nodes(self):
        efficiencies = [self.POINTS[n].efficiency for n in (1, 2, 4, 8)]
        assert efficiencies == sorted(efficiencies, reverse=True)

    def test_communication_grows_with_nodes(self):
        assert (self.POINTS[8].comm_time_s > self.POINTS[4].comm_time_s
                > self.POINTS[2].comm_time_s > 0)


class TestMemoryValidation:
    def test_oversized_problem_rejected(self):
        model = HPLModel()
        with pytest.raises(MemoryError):
            model.run(HPLConfig(n=60000))

    def test_distribution_unlocks_bigger_problems(self):
        model = HPLModel()
        model.validate_memory(HPLConfig(n=60000, n_nodes=8))  # fits


class TestOtherMachines:
    def test_marconi100_efficiency(self):
        model = HPLModel(node=MARCONI100_NODE)
        n = int((0.8 * MARCONI100_NODE.dram_bytes / 8) ** 0.5)
        result = model.run(HPLConfig(n=n - n % 192, nb=192))
        assert result.efficiency == pytest.approx(0.597, abs=0.002)

    def test_efficiency_independent_of_problem_size(self):
        model = HPLModel(node=MONTE_CIMONE_NODE)
        small = model.run(HPLConfig(n=9600, nb=192))
        large = model.run(HPLConfig(n=40704, nb=192))
        assert small.efficiency == pytest.approx(large.efficiency, rel=1e-6)
