"""Monitoring-overhead bench: the cost of the ExaMon deployment.

The paper's ODA framing requires monitoring to be lightweight.  This
bench measures the transport load of the §IV-B configuration (pmu_pub at
2 Hz × 4 cores × 5 events, stats_pub at 0.2 Hz × 28 metrics, per node)
and asserts the derived rates.
"""

import pytest

from repro.cluster.cluster import MonteCimoneCluster
from repro.examon.broker import MQTTBroker
from repro.examon.deployment import ExamonDeployment
from repro.thermal.enclosure import EnclosureConfig


@pytest.fixture(scope="module")
def monitored_minute():
    cluster = MonteCimoneCluster(enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    deployment = ExamonDeployment(cluster)
    deployment.start()
    cluster.run_for(60.0)
    return deployment


def test_message_rate_matches_configuration(benchmark, monitored_minute):
    deployment = benchmark(lambda: monitored_minute)
    overhead = deployment.monitoring_overhead_summary()
    # Per node per second: pmu 2 Hz × 4 cores × 5 events = 40 msgs,
    # stats 0.2 Hz × 28 metrics = 5.6 msgs → ~45.6; × 8 nodes × 60 s.
    expected = 8 * 60 * (2 * 4 * 5 + 0.2 * 28)
    assert overhead["messages_published"] == pytest.approx(expected, rel=0.05)


def test_bandwidth_is_negligible(benchmark, monitored_minute):
    """The whole cluster's telemetry is well under 1% of one GbE link."""
    deployment = benchmark(lambda: monitored_minute)
    overhead = deployment.monitoring_overhead_summary()
    bytes_per_s = overhead["bytes_published"] / 60.0
    assert bytes_per_s < 0.01 * 125e6


def test_storage_ingest_keeps_up(benchmark, monitored_minute):
    deployment = benchmark(lambda: monitored_minute)
    overhead = deployment.monitoring_overhead_summary()
    # Lossless pipeline: every published message is stored.
    assert overhead["points_stored"] == overhead["messages_published"]
    assert deployment.db.decode_errors == 0


def _broker_with_subscriptions(n_subscriptions):
    """A broker carrying ``n`` exact-topic subscriptions on distinct topics."""
    broker = MQTTBroker()
    for i in range(n_subscriptions):
        broker.subscribe(f"org/u/node/n{i % 64}/metric/m{i}",
                         lambda _m: None)
    return broker


def _publish_burst(broker, n_messages=200):
    for i in range(n_messages):
        broker.publish(f"org/u/node/n{i % 64}/metric/m{i % 16}", "1;1",
                       retain=False)


class TestSubscriptionIndexScaling:
    """Publish cost does not depend on the subscription count.

    Only the first publish of a topic filters the live subscriptions; every
    later publish of that topic is a match-cache hit.  ``match_cache_misses``
    counts the filter runs — a deterministic cost measure immune to timer
    noise — and must equal the distinct topics published whether the
    broker holds 100 subscriptions or 32 times as many.
    """

    @pytest.mark.parametrize("n_subscriptions", [100, 3200])
    def test_one_match_per_distinct_topic(self, n_subscriptions):
        broker = _broker_with_subscriptions(n_subscriptions)
        _publish_burst(broker)
        # 200 publishes over 64 distinct topics (n0..n63, m = n mod 16).
        assert broker.messages_published == 200
        assert broker.match_cache_misses == 64

    def test_index_throughput(self, benchmark):
        """Absolute datapoint: a publish burst against a loaded index."""
        broker = _broker_with_subscriptions(3200)
        benchmark.pedantic(lambda: _publish_burst(broker),
                           rounds=3, iterations=1)
        assert broker.messages_published > 0
