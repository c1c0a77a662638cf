"""Golden output digests for the ExaMon pipeline.

Any change to the monitoring write path (plugins, payload codec, broker,
time-series store) must reproduce these outputs exactly.  Each digest is
the SHA-256 of a canonical text rendering in which every float appears as
its ``repr``, so a one-ulp change anywhere shows up.

* The three Fig. 5 heatmaps (instructions, network, memory) of the
  300-second 8-node HPL run.
* The full store contents (every topic, every point) after the chaos
  ``examon-outage`` campaign, whose backfill replays buffered samples
  with their original timestamps.  The backfill is lossless, so the
  digest is the same at every seed; each topic's backfill lands before
  its next live sample, so these inserts arrive in order (the
  out-of-order path is pinned by the property tests in
  ``test_examon_storage.py``).
"""

import pytest

from repro.analysis.experiments import fig5_heatmaps
from repro.chaos.scenarios import run_scenario
from tests.golden import digest, store_digest

FIG5_DIGESTS = {
    "instructions":
        "facb2f28b0866d2083be38d4d743efa6e23bdf3cf1c53e6f6e0221a83d06d2f9",
    "network":
        "6ab88365ad851917f4298312c7ddfeb563e460f69a0e14f70010b4857f353ceb",
    "memory":
        "d2be250aff4f22daac90b3c624d7d7f5532bf5d376018c0c16bc2b37d6f859a5",
}

#: Seed of the examon-outage campaign whose store is pinned.
OUTAGE_SEED = 3
OUTAGE_DIGEST = (
    "013de6543bf6f26e1bb490227b638cbe3084f58a2548060591a688c70a041c81")


def heatmap_digest(heatmap):
    """Digest of a heatmap's metric, bucket times and rows, in order."""
    lines = [heatmap.metric, " ".join(repr(t) for t in heatmap.times)]
    for hostname, row in heatmap.rows.items():
        lines.append(hostname + " " + " ".join(repr(v) for v in row))
    return digest(lines)


@pytest.fixture(scope="module")
def fig5():
    return dict(zip(FIG5_DIGESTS, fig5_heatmaps(duration_s=300.0)))


@pytest.mark.parametrize("name", list(FIG5_DIGESTS))
def test_fig5_heatmap_digest(fig5, name):
    assert heatmap_digest(fig5[name]) == FIG5_DIGESTS[name]


def test_examon_outage_store_digest():
    result = run_scenario("examon-outage", OUTAGE_SEED)
    db = result.extras["db"]
    # The pinned store must contain samples replayed after the outage.
    assert result.extras["publish_rejects"] > 0
    assert result.extras["samples_backfilled"] > 0
    assert store_digest(db) == OUTAGE_DIGEST
