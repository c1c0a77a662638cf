"""Golden output digests for the ExaMon pipeline.

Any change to the monitoring write path (plugins, payload codec, broker,
time-series store) must reproduce these outputs exactly.  Each digest is
the SHA-256 of a canonical text rendering in which every float appears as
its ``repr``, so a one-ulp change anywhere shows up.

* The three Fig. 5 heatmaps (instructions, network, memory) of the
  300-second 8-node HPL run.
* The REST responses over the same store: one refresh of each Grafana
  dashboard (48 ``/api/rate`` and 16 ``/api/query`` requests) and the
  ``/api/aggregate`` request of ``examples/monitoring_dashboard.py``.
* The full store contents (every topic, every point) after the chaos
  ``examon-outage`` campaign, whose backfill replays buffered samples
  with their original timestamps.  The backfill is lossless, so the
  digest is the same at every seed; each topic's backfill lands before
  its next live sample, so these inserts arrive in order (the
  out-of-order path is pinned by the property tests in
  ``test_examon_storage.py``).
* The wire itself: every ``topic|payload`` a tap subscribed to ``#``
  receives during 120 s of 8-node HPL on the mitigated enclosure, in
  delivery order, and the broker's byte and message counts.  Store
  digests cannot see a change of payload text that decodes alike
  (``"1.0"`` and ``"1"``); this one can.
"""

import pytest

from repro.analysis.experiments import fig5_store
from repro.chaos.scenarios import run_scenario
from repro.cluster.cluster import MonteCimoneCluster
from repro.examon.deployment import ExamonDeployment
from repro.examon.grafana import (build_cluster_dashboard,
                                  build_thermal_dashboard)
from repro.examon.payload import decode_payload
from repro.power.model import HPL_PROFILE
from repro.slurm.api import SlurmAPI
from repro.thermal.enclosure import EnclosureConfig
from tests.golden import digest, store_digest

FIG5_DIGESTS = {
    "instructions":
        "facb2f28b0866d2083be38d4d743efa6e23bdf3cf1c53e6f6e0221a83d06d2f9",
    "network":
        "6ab88365ad851917f4298312c7ddfeb563e460f69a0e14f70010b4857f353ceb",
    "memory":
        "d2be250aff4f22daac90b3c624d7d7f5532bf5d376018c0c16bc2b37d6f859a5",
}

#: Digest of the REST responses of ``rest_requests`` over the Fig. 5 store.
REST_DIGEST = (
    "7f54d871517b9d9780141a7ed57f75aeeeeafbfd6197e813ca80be58414952fd")

#: Seed of the examon-outage campaign whose store is pinned.
OUTAGE_SEED = 3
OUTAGE_DIGEST = (
    "827d6f17c6eded81ec6852b6d121892543675db5a5c36f8a276a2e781a23232f")


def heatmap_digest(heatmap):
    """Digest of a heatmap's metric, bucket times and rows, in order."""
    lines = [heatmap.metric, " ".join(repr(t) for t in heatmap.times)]
    for hostname, row in heatmap.rows.items():
        lines.append(hostname + " " + " ".join(repr(v) for v in row))
    return digest(lines)


def rest_requests(deployment, start_s, end_s):
    """The REST requests a dashboard refresh and the example make."""
    hosts = list(deployment.cluster.nodes)
    requests = [
        (target["endpoint"], target["params"])
        for dashboard in (build_cluster_dashboard(hosts, deployment.schema),
                          build_thermal_dashboard(hosts, deployment.schema))
        for panel in dashboard["panels"] for target in panel["targets"]]
    topic = deployment.schema.stats_topic("mc-node-1", "temperature.cpu_temp")
    requests.append(("/api/aggregate", {"topic": topic, "start": start_s,
                                        "end": end_s, "window": 60.0,
                                        "how": "max"}))
    return requests


def rest_digest(responses):
    """Digest of ``(endpoint, params, points)`` responses, in order."""
    lines = []
    for endpoint, params, points in responses:
        lines.append(endpoint + " " + params["topic"])
        lines.extend(f"{point['t']!r} {point['v']!r}" for point in points)
    return digest(lines)


@pytest.fixture(scope="module")
def fig5_run():
    """The 300-second Fig. 5 store, built once for this module."""
    return fig5_store(duration_s=300.0)


@pytest.fixture(scope="module")
def fig5(fig5_run):
    """The Fig. 5 heatmaps, as ``fig5_heatmaps(300.0)`` reads them."""
    deployment, start, end = fig5_run
    dashboard, window = deployment.dashboard, max(300.0 / 30.0, 1.0)
    return {"instructions": dashboard.instructions_heatmap(start, end, window),
            "network": dashboard.network_heatmap(start, end, window),
            "memory": dashboard.memory_heatmap(start, end, window)}


@pytest.mark.parametrize("name", list(FIG5_DIGESTS))
def test_fig5_heatmap_digest(fig5, name):
    assert heatmap_digest(fig5[name]) == FIG5_DIGESTS[name]


def test_rest_responses_digest(fig5_run):
    deployment, start, end = fig5_run
    requests = rest_requests(deployment, start, end)
    kinds = [endpoint for endpoint, _params in requests]
    assert (kinds.count("/api/rate"), kinds.count("/api/query"),
            kinds.count("/api/aggregate")) == (48, 16, 1)
    responses = [(endpoint, params, deployment.rest.get(endpoint, params))
                 for endpoint, params in requests]
    assert all(points for _endpoint, _params, points in responses)
    assert rest_digest(responses) == REST_DIGEST


def test_examon_outage_store_digest():
    result = run_scenario("examon-outage", OUTAGE_SEED)
    db = result.extras["db"]
    # The pinned store must contain samples replayed after the outage.
    assert result.extras["publish_rejects"] > 0
    assert result.extras["samples_backfilled"] > 0
    assert store_digest(db) == OUTAGE_DIGEST


#: Digest of every ``topic|payload`` delivered during the wire run, and
#: the broker and store counts of that run.
WIRE_DIGEST = (
    "4b9ad07cd6eb07ad27670396f42a4982f7f36bbf75dcc9be6a2d32463c9d2f6b")
WIRE_COUNTS = {"bytes_published": 4_511_067, "messages_published": 44_000,
               "points_stored": 44_000}


@pytest.fixture(scope="module")
def wire_run():
    """120 s of 8-node HPL under ExaMon, with a tap on ``#``."""
    cluster = MonteCimoneCluster(enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    deployment = ExamonDeployment(cluster)
    delivered = []
    deployment.broker.subscribe(
        "wire-tap", "#",
        lambda message: delivered.append(f"{message.topic}|{message.payload}"))
    deployment.start()
    SlurmAPI(cluster.slurm).srun("hpl", "wire", nodes=8, duration_s=120.0,
                                 profile=HPL_PROFILE)
    return deployment, delivered


def test_wire_digest(wire_run):
    deployment, delivered = wire_run
    broker, db = deployment.broker, deployment.db
    counts = {"bytes_published": broker.bytes_published,
              "messages_published": broker.messages_published,
              "points_stored": db.points_stored}
    assert len(delivered) == broker.messages_published
    assert (counts, digest(delivered)) == (WIRE_COUNTS, WIRE_DIGEST)


def test_retained_payloads_decode_to_latest_points(wire_run):
    deployment, _delivered = wire_run
    replayed = []
    deployment.broker.subscribe("late-tap", "#", replayed.append)
    assert replayed and all(message.retained for message in replayed)
    assert [message.topic for message in replayed] == deployment.db.topics()
    for message in replayed:
        value, timestamp_s = decode_payload(message.payload)
        assert deployment.db.latest(message.topic) == (timestamp_s, value)
