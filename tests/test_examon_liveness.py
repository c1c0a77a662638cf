"""Every series ExaMon stores during a loaded run carries information.

A series that reads one value for a whole HPL run is either a metric the
model has no physics for, or a writer that was never wired up (the
constant ``nvme_temp`` sensor was one).  The run is the Fig. 5 job made
short: 120 s of 8-node HPL on the mitigated enclosure under the full
ExaMon deployment.  Every stored series must take more than one distinct
value, except the Table III metrics listed in :data:`CONSTANT_METRICS`,
each with the reason it is flat in this model.  A listed metric that does
vary fails the stale-entry test, so the table can only shrink.
"""

import pytest

from repro.cluster.cluster import MonteCimoneCluster
from repro.examon.deployment import ExamonDeployment
from repro.examon.plugins.stats_pub import TABLE_III_METRICS
from repro.hardware.hpm import FIXED_EVENTS, PROGRAMMABLE_EVENTS
from repro.hardware.specs import U740_SPEC
from repro.power.model import HPL_PROFILE
from repro.slurm.api import SlurmAPI
from repro.thermal.enclosure import EnclosureConfig

#: Table III metrics that are constant on every node of the model.
CONSTANT_METRICS = {
    "dsk_total.read": "the model does no block I/O",
    "dsk_total.writ": "the model does no block I/O",
    "io_total.read": "the model does no block I/O",
    "io_total.writ": "the model does no block I/O",
    "paging.in": "no swap",
    "paging.out": "no swap",
    "procs.blk": "no blocking I/O",
    "total_cpu_usage.wai": "no blocking I/O",
    "total_cpu_usage.stl": "bare metal: no hypervisor steals time",
}

N_NODES = 8


def metric_of(topic):
    """The Table II metric name: the topic's last level."""
    return topic.rsplit("/", 1)[1]


@pytest.fixture(scope="module")
def distinct_values():
    """Topic → the set of values its series took during the run."""
    cluster = MonteCimoneCluster(enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    deployment = ExamonDeployment(cluster)
    deployment.start()
    SlurmAPI(cluster.slurm).srun("hpl", "liveness", nodes=N_NODES,
                                 duration_s=120.0, profile=HPL_PROFILE)
    db = deployment.db
    return {topic: {v for _, v in db.query(topic)}
            for topic in db.topics("#")}


def test_every_node_publishes_both_plugins(distinct_values):
    per_core = len(FIXED_EVENTS) + len(PROGRAMMABLE_EVENTS)
    table3 = sum(len(group) for group in TABLE_III_METRICS.values())
    assert len(distinct_values) == N_NODES * (U740_SPEC.n_cores * per_core
                                              + table3)


def test_every_series_varies(distinct_values):
    constant = sorted(topic for topic, values in distinct_values.items()
                      if len(values) < 2
                      and metric_of(topic) not in CONSTANT_METRICS)
    assert constant == []


@pytest.mark.parametrize("metric", sorted(CONSTANT_METRICS))
def test_constant_metric_is_still_constant(distinct_values, metric):
    """Stale-entry check: a listed metric that varies must leave the list.

    A name that is not a Table III metric finds no series and fails too.
    """
    series = {topic: values for topic, values in distinct_values.items()
              if "/plugin/dstat_pub/" in topic and metric_of(topic) == metric}
    assert len(series) == N_NODES
    varying = sorted(topic for topic, values in series.items()
                     if len(values) > 1)
    assert varying == [], f"{metric} varies; drop it from CONSTANT_METRICS"
