"""Extension bench: dynamic thermal management in the runaway enclosure.

§VI item (ii) made quantitative: with the DTM governor active, the
original (lids-on) enclosure survives a full-machine HPL run that
otherwise trips node 7 — at a measured clock/throughput cost on the
throttled node only.
"""

import pytest

from repro.cluster.cluster import MonteCimoneCluster
from repro.power.model import HPL_PROFILE
from repro.slurm.api import SlurmAPI
from repro.slurm.job import JobState
from repro.thermal.dtm import ClusterDTM
from repro.thermal.enclosure import EnclosureConfig


@pytest.fixture(scope="module")
def dtm_run():
    cluster = MonteCimoneCluster(enclosure_config=EnclosureConfig.original())
    cluster.boot_all()
    dtm = ClusterDTM(cluster.nodes)
    dtm.start(cluster.engine)
    api = SlurmAPI(cluster.slurm)
    job = api.srun("hpl", "bench", 8, duration_s=1800.0, profile=HPL_PROFILE)
    return cluster, dtm, job


def test_dtm_survives_the_original_enclosure(benchmark, dtm_run):
    cluster, dtm, job = benchmark(lambda: dtm_run)
    assert job.state is JobState.COMPLETED
    assert cluster.watchdog.tripped_nodes() == []


def test_dtm_throttles_only_the_runaway_slot(benchmark, dtm_run):
    cluster, dtm, _job = benchmark(lambda: dtm_run)
    intervened = {event.node for event in dtm.all_events()}
    assert "mc-node-7" in intervened
    # Edge nodes never need throttling.
    assert "mc-node-1" not in intervened
    assert "mc-node-2" not in intervened


def test_dtm_throughput_cost_is_bounded(benchmark, dtm_run):
    """The throttled node loses clock, but far less than losing the node."""
    cluster, _dtm, _job = benchmark(lambda: dtm_run)
    for node in cluster.nodes.values():
        node.settle()
    node7 = cluster.nodes["mc-node-7"].board.cores.total_instructions()
    node1 = cluster.nodes["mc-node-1"].board.cores.total_instructions()
    ratio = node7 / node1
    assert 0.4 < ratio < 0.98  # throttled, not dead
