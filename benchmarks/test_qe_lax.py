"""§V-A QuantumESPRESSO LAX: 1.44 ± 0.05 GFLOP/s over 37.40 s on 512²."""

import numpy as np

from repro.analysis.paper import COMPARISON_FRACTIONS
from repro.benchmarks.kernels import blocked_jacobi_eigh
from repro.benchmarks.qe_lax import QELaxModel


def test_qe_lax_efficiency_between_stream_and_hpl(benchmark):
    result = benchmark(QELaxModel().run)
    monte_cimone = COMPARISON_FRACTIONS["montecimone"]
    assert monte_cimone["stream"] < result.efficiency < monte_cimone["hpl"]


def test_lax_kernel_diagonalisation(benchmark):
    """Time the real blocked-Jacobi kernel on a small LAX-style matrix."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(48, 48))
    a = (a + a.T) / 2

    values, _vectors = benchmark(blocked_jacobi_eigh, a)
    assert np.allclose(values, np.linalg.eigvalsh(a), atol=1e-8)
