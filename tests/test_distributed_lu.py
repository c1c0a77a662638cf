"""Tests for the executed distributed LU and its model cross-validation."""

import numpy as np
import pytest

from repro.benchmarks.distributed_lu import DistributedLU
from repro.benchmarks.hpl import HPLConfig, HPLModel
from repro.benchmarks.kernels import hpl_residual

RNG = np.random.default_rng(11)


def system(n):
    a = RNG.normal(size=(n, n)) + n * np.eye(n)
    b = RNG.normal(size=n)
    return a, b


class TestNumerics:
    @pytest.mark.parametrize("n,nb,ranks", [
        (16, 4, 1), (16, 4, 2), (32, 8, 4), (48, 8, 3), (33, 7, 4),
        (24, 24, 2), (20, 32, 4),  # nb >= n: single panel
    ])
    def test_solution_matches_numpy(self, n, nb, ranks):
        a, b = system(n)
        result = DistributedLU(n_ranks=ranks, nb=nb).solve(a, b)
        assert np.allclose(result.x, np.linalg.solve(a, b), atol=1e-8)

    def test_passes_the_hpl_residual(self):
        a, b = system(64)
        result = DistributedLU(n_ranks=4, nb=8).solve(a, b)
        assert hpl_residual(a, result.x, b) < 16.0

    def test_rank_count_does_not_change_numerics(self):
        a, b = system(32)
        x1 = DistributedLU(n_ranks=1, nb=8).solve(a, b).x
        x4 = DistributedLU(n_ranks=4, nb=8).solve(a, b).x
        assert np.allclose(x1, x4, atol=1e-12)

    def test_singular_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            DistributedLU().solve(np.zeros((8, 8)), np.zeros(8))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            DistributedLU().solve(np.zeros((4, 5)), np.zeros(4))

    def test_pivoting_handles_zero_diagonal(self):
        a = np.array([[0.0, 2.0], [3.0, 0.0]])
        result = DistributedLU(n_ranks=1, nb=1).solve(a, np.array([4.0, 6.0]))
        assert np.allclose(result.x, [2.0, 2.0])


class TestDistribution:
    def test_cyclic_ownership(self):
        lu = DistributedLU(n_ranks=3)
        assert [lu.owner_of_block(b) for b in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedLU(n_ranks=0)
        with pytest.raises(ValueError):
            DistributedLU(nb=0)


class TestTimeAccounting:
    def test_single_rank_has_no_comm(self):
        a, b = system(32)
        result = DistributedLU(n_ranks=1, nb=8).solve(a, b)
        assert result.comm_time_s == 0.0
        assert result.simulated_time_s == result.compute_time_s

    def test_multi_rank_pays_communication(self):
        a, b = system(32)
        result = DistributedLU(n_ranks=4, nb=8).solve(a, b)
        assert result.comm_time_s > 0.0

    def test_more_ranks_less_compute_time(self):
        a, b = system(64)
        t1 = DistributedLU(n_ranks=1, nb=8).solve(a, b).compute_time_s
        t4 = DistributedLU(n_ranks=4, nb=8).solve(a, b).compute_time_s
        assert t4 < t1

    def test_small_problems_do_not_scale(self):
        """At tiny N the comm dominates: the executed solver shows the
        same below-linear behaviour the model predicts at scale."""
        a, b = system(48)
        single = DistributedLU(n_ranks=1, nb=8).solve(a, b)
        quad = DistributedLU(n_ranks=4, nb=8).solve(a, b)
        speedup = single.simulated_time_s / quad.simulated_time_s
        assert speedup < 4.0

    def test_cross_validation_against_analytic_model(self):
        """Single-rank executed time tracks the analytic model within 25%.

        Both charge flops at the same attained rate; the executed solver
        differs only in the exact panel/solve bookkeeping, so the two
        must agree closely — this pins the model to the real algorithm.
        """
        n = 96
        a, b = system(n)
        executed = DistributedLU(n_ranks=1, nb=16).solve(a, b)
        model = HPLModel().compute_time_s(HPLConfig(n=n, nb=16))
        assert executed.simulated_time_s == pytest.approx(model, rel=0.25)

    def test_reported_gflops_consistent(self):
        a, b = system(64)
        result = DistributedLU(n_ranks=2, nb=8).solve(a, b)
        flops = 2 / 3 * 64 ** 3 + 2 * 64 ** 2
        assert result.gflops == pytest.approx(
            flops / result.simulated_time_s / 1e9)
