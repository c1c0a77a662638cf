"""§V-A STREAM efficiency comparison: MC 15.5% vs M100 48.2% vs Armida 63.21%.

The per-machine fractions are claims in the ledger
(``test_paper_claims.py``).
"""

from repro.analysis.experiments import comparison_table


def test_monte_cimone_below_lower_quartile(benchmark):
    """§V-A: the comparison suggests 'a result higher than the lower
    quartile should be easily attained' — i.e. MC is the outlier."""
    fractions = {row[0]: row[3] for row in benchmark(comparison_table)}
    others = [f for machine, f in fractions.items() if machine != "montecimone"]
    assert fractions["montecimone"] < 0.5 * min(others)
