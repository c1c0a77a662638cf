"""Fig. 6: the thermal runaway during HPL and the §V-C mitigation.

The paper's Fig. 6 numbers (runaway node, trip temperature, survivor,
mitigation and outcomes) are claims in the ledger (``test_paper_claims.py``);
this file pins the whole result.
"""

import hashlib

#: SHA-256 of ``repr`` of the Fig. 6 result (every float at full
#: precision); any change to the simulated run or its monitoring moves it.
FIG6_DIGEST = (
    "c40084eb817992055941abd0496dbc3188dfcd4903d14a739f45c547e81a8779")


def test_fig6_result_digest(fig6_results):
    digest = hashlib.sha256(repr(fig6_results).encode()).hexdigest()
    assert digest == FIG6_DIGEST, repr(fig6_results)

