"""Tests for pmu_pub and stats_pub against a booted node."""

import pytest

from repro.cluster.node import ComputeNode
from repro.examon.broker import BrokerUnavailableError, MQTTBroker
from repro.examon.payload import decode_payload
from repro.examon.plugins.pmu_pub import PmuPubPlugin
from repro.examon.plugins.stats_pub import TABLE_III_METRICS, StatsPubPlugin
from repro.events.engine import Engine
from repro.hardware.hpm import FIXED_EVENTS, PROGRAMMABLE_EVENTS
from repro.power.model import HPL_PROFILE
from repro.thermal.enclosure import Enclosure, EnclosureConfig


def booted_node(patched_uboot=True):
    node = ComputeNode(hostname="mc-node-1", patched_uboot=patched_uboot)
    node.power_on(0.0)
    node.start_bootloader(6.0)
    node.finish_boot(21.0)
    return node


class TestPmuPub:
    def test_default_rate_2hz(self):
        plugin = PmuPubPlugin(booted_node(), MQTTBroker())
        assert plugin.sample_hz == 2.0
        assert plugin.period_s == 0.5

    def test_sample_covers_all_cores(self):
        plugin = PmuPubPlugin(booted_node(), MQTTBroker())
        metrics = plugin.sample(22.0)
        for core in range(4):
            assert any(f"/core/{core}/" in topic for topic in metrics)

    def test_patched_uboot_publishes_programmable_events(self):
        plugin = PmuPubPlugin(booted_node(patched_uboot=True), MQTTBroker())
        metrics = plugin.sample(22.0)
        assert any(topic.endswith("/fp_ops") for topic in metrics)

    def test_stock_uboot_publishes_fixed_only(self):
        plugin = PmuPubPlugin(booted_node(patched_uboot=False), MQTTBroker())
        metrics = plugin.sample(22.0)
        suffixes = {topic.rsplit("/", 1)[1] for topic in metrics}
        assert suffixes == {"cycles", "instructions"}

    def test_publish_once_encodes_table_ii_payload(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("#", received.append)
        plugin = PmuPubPlugin(booted_node(), broker)
        count = plugin.publish_once(30.0)
        assert count == len(received)
        value, timestamp = decode_payload(received[0].payload)
        assert timestamp == 30.0
        assert value >= 0

    def test_publish_once_counts_sample_when_broker_refuses(self):
        broker = MQTTBroker()
        plugin = PmuPubPlugin(booted_node(), broker)
        plugin.publish_once(30.0)
        broker.go_offline()
        with pytest.raises(BrokerUnavailableError):
            plugin.publish_once(30.5)
        # The sample was taken even though its publish was refused, the
        # same accounting as the daemon's sample_and_publish.
        assert plugin.samples_taken == 2
        assert broker.publish_rejects == 1

    def test_topics_follow_a_change_of_event_set(self):
        node = booted_node(patched_uboot=False)
        plugin = PmuPubPlugin(node, MQTTBroker())
        assert len(plugin.sample(22.0)) == 8  # cycles + instructions × 4
        node.board.enable_hpm_counters()  # what the U-Boot patch does
        metrics = plugin.sample(22.5)
        assert any(topic.endswith("/fp_ops") for topic in metrics)
        assert metrics == PmuPubPlugin(node, MQTTBroker()).sample(22.5)

    def test_patch_mid_run_publishes_the_three_events_from_the_next_sample(
            self):
        node = booted_node(patched_uboot=False)
        broker = MQTTBroker()
        received = []
        broker.subscribe("#", received.append)
        plugin = PmuPubPlugin(node, broker)
        perf = node.board.perf
        asked, reads = [], []
        available, read = perf.available_events, perf.read

        def counting_available(core_id):
            asked.append(core_id)
            return available(core_id)

        def counting_read(core_id, event):
            reads.append(event)
            return read(core_id, event)

        perf.available_events, perf.read = counting_available, counting_read

        def published_events():
            events = {message.topic.rsplit("/", 1)[1] for message in received}
            received.clear()
            return events

        plugin.publish_once(22.0)
        assert published_events() == set(FIXED_EVENTS)
        node.board.enable_hpm_counters()  # what the U-Boot patch does
        for now_s in (22.5, 23.0, 23.5):
            plugin.publish_once(now_s)
            assert published_events() == (set(FIXED_EVENTS)
                                          | set(PROGRAMMABLE_EVENTS))
        # Each core is asked for its events until it holds the full set,
        # which only grows: the first two samples ask, the rest do not.
        assert len(asked) == 2 * 4
        # Every published value is still read from the counters.
        assert len(reads) == 4 * len(FIXED_EVENTS) + 3 * 4 * (
            len(FIXED_EVENTS) + len(PROGRAMMABLE_EVENTS))

    def test_counters_increase_under_load(self):
        node = booted_node()
        plugin = PmuPubPlugin(node, MQTTBroker())
        topic = plugin.schema.pmu_topic("mc-node-1", 0, "instructions")
        before = plugin.sample(22.0)[topic]
        node.begin_workload(HPL_PROFILE, 22.0)
        node.advance(10.0)
        after = plugin.sample(32.0)[topic]
        assert after > before

    def test_run_as_engine_process(self):
        engine = Engine()
        broker = MQTTBroker()
        plugin = PmuPubPlugin(booted_node(), broker)
        engine.spawn(plugin.run(engine))
        engine.run(until=5.0)
        # 2 Hz for 5 s, first sample at t=0 → 11 sampling instants
        # (t = 0.0, 0.5, ..., 5.0); the boot window is monitored too.
        assert plugin.samples_taken == 11
        plugin.stop()


class TestStatsPub:
    def test_default_rate_0_2hz(self):
        plugin = StatsPubPlugin(booted_node(), MQTTBroker())
        assert plugin.sample_hz == 0.2
        assert plugin.period_s == 5.0

    def test_all_table_iii_metrics_published(self):
        plugin = StatsPubPlugin(booted_node(), MQTTBroker())
        metrics = plugin.sample(22.0)
        published = {topic.rsplit("/data/", 1)[1] for topic in metrics}
        expected = {metric for group in TABLE_III_METRICS.values()
                    for metric in group}
        assert published == expected

    def test_temperatures_come_from_hwmon(self):
        node = booted_node()
        node.board.hwmon.set_celsius("cpu_temp", 66.0)
        plugin = StatsPubPlugin(node, MQTTBroker())
        metrics = plugin.sample(22.0)
        topic = plugin.schema.stats_topic("mc-node-1", "temperature.cpu_temp")
        assert metrics[topic] == pytest.approx(66.0)

    def test_nvme_temperature_follows_the_rc_model_under_load(self):
        node = booted_node()
        node.attach_thermal(Enclosure(EnclosureConfig.original()), slot=4)
        node.begin_workload(HPL_PROFILE, 21.0)
        for _ in range(600):
            node.advance(1.0)
        plugin = StatsPubPlugin(node, MQTTBroker())
        metrics = plugin.sample(621.0)
        topic = plugin.schema.stats_topic("mc-node-1", "temperature.nvme_temp")
        rc_c = node.thermal.nvme.temperature_c
        # hwmon reports millidegrees.
        assert metrics[topic] == pytest.approx(rc_c, abs=1e-3)
        assert metrics[topic] != 30.0

    def test_cpu_usage_reflects_load(self):
        node = booted_node()
        node.begin_workload(HPL_PROFILE, 22.0)
        node.advance(60.0)
        plugin = StatsPubPlugin(node, MQTTBroker())
        metrics = plugin.sample(82.0)
        usr_topic = plugin.schema.stats_topic("mc-node-1", "total_cpu_usage.usr")
        assert metrics[usr_topic] > 50.0

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            StatsPubPlugin(booted_node(), MQTTBroker(), sample_hz=0.0)
