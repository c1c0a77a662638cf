"""Tests for the real numpy kernels: LU, solve, residual, Jacobi, STREAM.

These validate that the algorithms the performance models account for are
actually implemented correctly — the grounding of the reproduction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.benchmarks.kernels import (
    blocked_jacobi_eigh,
    blocked_lu,
    hpl_residual,
    lu_solve,
    stream_triad,
)

RNG = np.random.default_rng(42)


class TestStreamKernels:
    def test_triad(self):
        b, c = RNG.normal(size=100), RNG.normal(size=100)
        a = np.zeros(100)
        stream_triad(a, b, c, scalar=3.0)
        assert np.allclose(a, b + 3.0 * c)


class TestBlockedLU:
    @pytest.mark.parametrize("n,nb", [(8, 3), (16, 4), (50, 8), (64, 64),
                                      (33, 5)])
    def test_factorisation_reconstructs_matrix(self, n, nb):
        a = RNG.normal(size=(n, n)) + n * np.eye(n)
        lu, piv = blocked_lu(a, nb=nb)
        lower = np.tril(lu, -1) + np.eye(n)
        upper = np.triu(lu)
        assert np.allclose(lower @ upper, a[np.asarray(piv)], atol=1e-9)

    def test_solve_matches_numpy(self):
        n = 40
        a = RNG.normal(size=(n, n)) + n * np.eye(n)
        b = RNG.normal(size=n)
        lu, piv = blocked_lu(a, nb=7)
        x = lu_solve(lu, piv, b)
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)

    def test_partial_pivoting_handles_zero_leading_element(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        lu, piv = blocked_lu(a, nb=1)
        x = lu_solve(lu, piv, np.array([2.0, 3.0]))
        assert np.allclose(x, [3.0, 2.0])

    def test_singular_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            blocked_lu(np.zeros((4, 4)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            blocked_lu(np.zeros((3, 4)))

    def test_block_size_independence(self):
        a = RNG.normal(size=(24, 24)) + 24 * np.eye(24)
        b = RNG.normal(size=24)
        x1 = lu_solve(*blocked_lu(a, nb=1), b)
        x24 = lu_solve(*blocked_lu(a, nb=24), b)
        assert np.allclose(x1, x24, atol=1e-9)

    @given(n=st.integers(min_value=2, max_value=20),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_hpl_residual_passes_for_well_conditioned(self, n, seed):
        """Property: the HPL pass criterion holds on random systems."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = lu_solve(*blocked_lu(a, nb=4), b)
        assert hpl_residual(a, x, b) < 16.0  # HPL's PASSED threshold

    def test_residual_detects_wrong_solution(self):
        n = 10
        a = RNG.normal(size=(n, n)) + n * np.eye(n)
        b = RNG.normal(size=n)
        assert hpl_residual(a, np.zeros(n), b) > 16.0


class TestJacobiEigh:
    @pytest.mark.parametrize("n", [2, 5, 16, 32])
    def test_matches_numpy_eigh(self, n):
        a = RNG.normal(size=(n, n))
        a = (a + a.T) / 2
        values, vectors = blocked_jacobi_eigh(a)
        expected = np.linalg.eigvalsh(a)
        assert np.allclose(values, expected, atol=1e-8)
        # Eigenvector check: A v = λ v for every pair.
        for k in range(n):
            assert np.allclose(a @ vectors[:, k], values[k] * vectors[:, k],
                               atol=1e-7)

    def test_eigenvectors_orthonormal(self):
        a = RNG.normal(size=(12, 12))
        a = (a + a.T) / 2
        _values, vectors = blocked_jacobi_eigh(a)
        assert np.allclose(vectors.T @ vectors, np.eye(12), atol=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            blocked_jacobi_eigh(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_diagonal_matrix_is_fixed_point(self):
        d = np.diag([3.0, 1.0, 2.0])
        values, _vectors = blocked_jacobi_eigh(d)
        assert np.allclose(values, [1.0, 2.0, 3.0])

    def test_eigenvalues_ascending(self):
        a = RNG.normal(size=(9, 9))
        a = (a + a.T) / 2
        values, _ = blocked_jacobi_eigh(a)
        assert np.all(np.diff(values) >= -1e-12)
