"""Fig. 2: HPL strong scaling on 1-8 nodes over the 1 GbE network.

Shape checks: more nodes always win, by less than linear.  The paper's
anchor points (GFLOP/s, fractions of peak and of linear, runtimes) are
claims in the ledger (``test_paper_claims.py``).
"""

from repro.analysis.experiments import fig2_hpl_scaling


def test_fig2_speedup_curve_is_concave(benchmark):
    scaling = benchmark(fig2_hpl_scaling)
    speedups = [p.speedup for p in scaling.points]
    node_counts = [p.n_nodes for p in scaling.points]
    # Monotone increasing, always below linear, efficiency decreasing.
    assert speedups == sorted(speedups)
    for count, speedup in zip(node_counts[1:], speedups[1:]):
        assert speedup < count
    per_node = [s / n for s, n in zip(speedups, node_counts)]
    assert per_node == sorted(per_node, reverse=True)


def test_fig2_runtime_shrinks_with_nodes(benchmark):
    scaling = benchmark(fig2_hpl_scaling)
    runtimes = [p.runtime_s for p in scaling.points]
    assert runtimes == sorted(runtimes, reverse=True)
