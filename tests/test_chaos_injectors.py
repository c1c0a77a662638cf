"""Component-level chaos: each layer's fault surface and recovery policy.

Covers the graceful-degradation machinery the injectors drive: broker
outage → plugin buffer/backoff/backfill, link flap → MPI retry, service
outage → queued logins and deferred writes, sensor faults → skipped
metrics and recovery spans, plus how a down or degraded
:class:`~repro.network.link.Link` reaches
:meth:`~repro.network.mpi.MPICostModel.point_to_point`.
"""

import pytest

from repro.chaos.faults import ChaosLog
from repro.chaos.injectors import (BrokerOutageInjector, LinkFaultInjector,
                                   SensorFaultInjector,
                                   ServiceOutageInjector)
from repro.cluster.node import ComputeNode
from repro.cluster.services.base import ServiceUnavailableError
from repro.cluster.services.ldap import LDAPServer
from repro.cluster.services.nfs import NFSServer
from repro.events.engine import Engine
from repro.events.backoff import ExponentialBackoff
from repro.examon.broker import BrokerUnavailableError, MQTTBroker
from repro.examon.payload import decode_payload
from repro.examon.plugins.pmu_pub import PmuPubPlugin
from repro.examon.plugins.stats_pub import StatsPubPlugin
from repro.examon.tsdb import TimeSeriesDB
from repro.hardware.sensors import SensorReadError, ThermalSensor
from repro.network.link import LinkDownError
from repro.network.mpi import (MPICostModel, MPIRetryError, MPIRetryPolicy,
                               run_collective_with_retry)
from repro.network.topology import ClusterTopology, Switch
from repro.obs.instrument import attach_tracer


def booted_node(hostname="mc-node-1"):
    node = ComputeNode(hostname=hostname)
    node.power_on(0.0)
    node.start_bootloader(0.0)
    node.finish_boot(0.0)
    return node


class TestSensorFaults:
    def test_dropout_read_raises_until_repair(self):
        sensor = ThermalSensor(name="cpu_temp")
        sensor.fail_dropout()
        assert not sensor.healthy
        with pytest.raises(SensorReadError):
            sensor.millidegrees()
        sensor.repair()
        assert sensor.healthy
        assert isinstance(sensor.millidegrees(), int)

    def test_stuck_sensor_freezes_value(self):
        sensor = ThermalSensor(name="cpu_temp")
        sensor.set(40.0)
        sensor.fail_stuck()
        sensor.set(55.0)
        assert sensor.temperature_c == 40.0
        sensor.repair()
        sensor.set(55.0)
        assert sensor.temperature_c == 55.0

    def test_stats_pub_skips_failed_sensor_and_recovers(self):
        engine = Engine()
        tracer = attach_tracer(engine)
        node = booted_node()
        plugin = StatsPubPlugin(node, MQTTBroker(), sample_hz=1.0)
        engine.spawn(plugin.run(engine))
        injector = SensorFaultInjector(engine, ChaosLog(), node, "cpu_temp",
                                       mode="dropout")
        injector.schedule_window(2.5, 5.5)
        engine.run(until=10.0)
        plugin.stop()
        assert plugin.sensor_faults == 3  # reads at t=3, 4, 5 failed
        recoveries = [s for s in tracer.spans
                      if s.category == "chaos.recovery"]
        assert len(recoveries) == 1
        span = recoveries[0]
        assert span.attributes["target"] == "mc-node-1/cpu_temp"
        assert span.start_s == pytest.approx(3.0)
        assert span.end_s == pytest.approx(6.0)  # first good read


class TestBrokerOutage:
    def test_publish_raises_and_counts_when_offline(self):
        broker = MQTTBroker()
        broker.go_offline()
        with pytest.raises(BrokerUnavailableError):
            broker.publish("t", b"1;0")
        assert broker.publish_rejects == 1
        broker.restore()
        broker.publish("t", b"1;0")

    def test_subscriptions_survive_an_outage(self):
        broker = MQTTBroker()
        seen = []
        broker.subscribe("#", seen.append)
        broker.go_offline()
        broker.restore()
        broker.publish("a/b", b"1;0")
        assert len(seen) == 1

    def test_plugin_buffers_and_backfills_into_tsdb(self):
        engine = Engine()
        attach_tracer(engine)
        broker = MQTTBroker(hostname="mc-master")
        db = TimeSeriesDB()
        db.attach(broker, "#")
        plugin = PmuPubPlugin(booted_node(), broker)  # 2 Hz
        engine.spawn(plugin.run(engine))
        injector = BrokerOutageInjector(engine, ChaosLog(), broker)
        injector.schedule_window(3.0, 8.0)
        engine.run(until=20.0)
        plugin.stop()
        assert plugin.publish_failures >= 1
        assert plugin.samples_backfilled > 0
        assert plugin.connected
        assert plugin.buffered_samples == 0
        # The outage window is covered by backfilled original timestamps.
        topic = sorted(db.topics())[0]
        times = [t for t, _v in db.query(topic, 3.0, 8.0)]
        assert times, "no backfilled samples in the outage window"
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert max(gaps) == pytest.approx(0.5)

    def test_buffer_is_bounded_drop_oldest(self):
        engine = Engine()
        broker = MQTTBroker()
        plugin = PmuPubPlugin(booted_node(), broker, buffer_limit=10)
        engine.spawn(plugin.run(engine))
        broker.go_offline()
        engine.run(until=30.0)
        plugin.stop()
        assert plugin.buffered_samples == 10
        assert plugin.samples_dropped > 0

    def test_reconnect_follows_backoff_schedule(self):
        engine = Engine()
        broker = MQTTBroker()
        plugin = PmuPubPlugin(
            booted_node(), broker,
            reconnect_backoff=ExponentialBackoff(base_s=1.0, factor=2.0,
                                                 max_s=8.0))
        engine.spawn(plugin.run(engine))
        broker.go_offline()
        engine.run(until=40.0)
        plugin.stop()
        # Reconnect attempts are spaced out, not every sampling instant:
        # a 2 Hz daemon makes ~80 instants in 40 s but far fewer probes.
        assert 0 < plugin.reconnect_attempts < 20


def two_node_model(latency_s=1e-5):
    """A two-node star with no switch or software latency of its own."""
    topology = ClusterTopology(["a", "b"], link_bandwidth_bytes_per_s=1e6,
                               link_latency_s=latency_s,
                               switch=Switch(port_to_port_latency_s=0.0))
    return topology, MPICostModel(topology, software_overhead_s=0.0)


class TestLinkFaults:
    def test_transfer_time_validates_arguments(self):
        _, model = two_node_model()
        with pytest.raises(ValueError):
            model.point_to_point(-1)
        # Latency on both endpoint links.
        assert model.point_to_point(0) == pytest.approx(2e-5)

    def test_down_link_refuses_transfers(self):
        topology, model = two_node_model()
        topology.links["a"].set_down()
        with pytest.raises(LinkDownError) as excinfo:
            model.point_to_point(100)
        assert excinfo.value.link_name == topology.links["a"].name
        topology.links["a"].set_up()
        model.point_to_point(100)

    def test_degraded_link_stretches_transfers(self):
        topology, model = two_node_model(latency_s=0.0)
        nominal = model.point_to_point(1_000_000)
        topology.links["b"].set_degraded(4.0)
        assert model.point_to_point(1_000_000) == pytest.approx(4 * nominal)
        topology.links["b"].clear_degraded()
        assert model.point_to_point(1_000_000) == pytest.approx(nominal)

    def test_collective_retries_over_flap_and_records_recovery(self):
        engine = Engine()
        tracer = attach_tracer(engine)
        topology = ClusterTopology(["a", "b"])
        model = MPICostModel(topology)
        injector = LinkFaultInjector(engine, ChaosLog(),
                                     topology.links["a"], mode="down")
        injector.schedule_window(0.0, 4.0)
        outcome = {}

        def driver():
            outcome.update((yield from run_collective_with_retry(
                engine, model, "allreduce", n_bytes=1 << 16, n_ranks=2)))

        engine.spawn(driver())
        engine.run(until=30.0)
        assert outcome["retries"] >= 1
        recoveries = [s for s in tracer.spans
                      if s.category == "chaos.recovery"]
        assert recoveries and recoveries[0].attributes["kind"] == "link-down"
        assert recoveries[0].end_s >= 4.0

    def test_collective_exhausts_retry_budget(self):
        engine = Engine()
        topology = ClusterTopology(["a", "b"])
        topology.links["a"].set_down()
        model = MPICostModel(topology)
        policy = MPIRetryPolicy(timeout_s=0.1, max_retries=2,
                                backoff=ExponentialBackoff(base_s=0.1,
                                                           max_s=0.4))
        failures = []

        def driver():
            try:
                yield from run_collective_with_retry(
                    engine, model, "allreduce", n_bytes=1024, n_ranks=2,
                    policy=policy)
            except MPIRetryError as exc:
                failures.append(exc)

        engine.spawn(driver())
        engine.run(until=10.0)
        assert len(failures) == 1


class TestServiceOutage:
    def test_gated_rpcs_raise_while_down(self):
        nfs = NFSServer()
        nfs.export("/home")
        nfs.stop_service()
        with pytest.raises(ServiceUnavailableError):
            nfs.write("/home/x", b"data")
        with pytest.raises(ServiceUnavailableError):
            nfs.read("/home/x")
        assert nfs.requests_refused == 2
        assert nfs.exists("/home")  # client-cached metadata still answers
        nfs.start_service()
        nfs.write("/home/x", b"data")

    def test_ldap_bind_raises_while_down(self):
        ldap = LDAPServer()
        ldap.add_group("g")
        ldap.add_user("u", "pw", "g")
        ldap.stop_service()
        with pytest.raises(ServiceUnavailableError):
            ldap.bind("u", "pw")
        ldap.start_service()
        assert ldap.bind("u", "pw").uid == "u"

    def test_injector_restore_runs_callback_and_records_recovery(self):
        engine = Engine()
        tracer = attach_tracer(engine)
        nfs = NFSServer()
        nfs.export("/home")
        replayed = []
        injector = ServiceOutageInjector(
            engine, ChaosLog(), nfs,
            on_restore=lambda: replayed.append(1) or {"flushed": 3})
        injector.schedule_window(1.0, 5.0)
        engine.run(until=6.0)
        assert replayed == [1]
        faults = [s for s in tracer.spans if s.category == "chaos.fault"]
        recoveries = [s for s in tracer.spans
                      if s.category == "chaos.recovery"]
        assert len(faults) == 1 and len(recoveries) == 1
        assert faults[0].start_s == pytest.approx(1.0)
        assert faults[0].end_s == pytest.approx(5.0)
        assert recoveries[0].attributes["flushed"] == 3
