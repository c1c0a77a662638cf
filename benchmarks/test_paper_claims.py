"""Every paper claim in the ledger (``repro.analysis.validate.CLAIMS``).

One test per claim: §I, §III, §V-A, Tables I, V and VI, Figs. 2-4 and 6.
Each driver runs once per session; Fig. 6 comes from the shared
``fig6_results`` run.  Checks that are not paper numbers (orderings,
curve shapes, digests) live beside their figure's other benchmarks.
"""

import pytest

from repro.analysis.experiments import fig6_thermal_runaway
from repro.analysis.validate import CLAIMS


@pytest.fixture(scope="session")
def driver_results(fig6_results):
    """Driver -> result, filled as claims ask for it."""
    return {fig6_thermal_runaway: fig6_results}


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.title)
def test_paper_claim(driver_results, claim):
    check = claim.check(driver_results)
    assert check.passed, check
