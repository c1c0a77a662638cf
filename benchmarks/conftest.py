"""Shared fixtures for the benchmark harness.

``test_paper_claims.py`` checks every paper number against its bound in
the claims ledger (``repro.analysis.validate.CLAIMS``); the other files
check each table's and figure's shape (orderings, curves, digests; see
DESIGN.md §3 for the experiment index).  Full-cluster simulations run once
per session through the fixtures below; pytest-benchmark then times the
cheap regeneration paths and the numeric kernels.
"""

import pytest

from repro.analysis.experiments import fig5_heatmaps, fig6_thermal_runaway


@pytest.fixture(scope="session")
def fig5_results():
    """The Fig. 5 cluster run (ExaMon over an 8-node HPL job)."""
    return fig5_heatmaps(duration_s=300.0)


@pytest.fixture(scope="session")
def fig6_results():
    """The Fig. 6 cluster run (runaway + mitigation)."""
    return fig6_thermal_runaway(run_s=1800.0)
