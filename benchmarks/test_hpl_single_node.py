"""§V-A single-node HPL and the three-machine comparison row.

The paper's numbers (1.86 GFLOP/s, 46.5% of peak, the Marconi100 and
Armida fractions) are claims in the ledger (``test_paper_claims.py``).
"""

from repro.analysis.experiments import comparison_table
from repro.benchmarks.hpl import HPLConfig


def test_hpl_memory_sizing(benchmark):
    """The paper's N=40704 fills ~83% of node DRAM — near the HPL rule."""
    config = benchmark(HPLConfig)
    fraction = config.matrix_bytes / (16 * 1024 ** 3)
    assert 0.7 < fraction < 0.85


def test_machine_comparison(benchmark):
    rows = benchmark(comparison_table)
    hpl = {machine: fraction for machine, fraction, *_rest in rows}
    # Monte Cimone is "slightly lower ... but in the range" (§V-A).
    assert hpl["montecimone"] > 0.7 * hpl["armidathunderx2"]
