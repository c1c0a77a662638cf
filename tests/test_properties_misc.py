"""Property-based tests across subsystems: broker, NFS, TSDB, specs, kernel."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events.engine import Engine, SimulationError
from repro.examon.broker import MQTTBroker
from repro.examon.topics import topic_matches
from repro.examon.tsdb import TimeSeriesDB
from repro.spack.concretizer import Concretizer
from repro.spack.spec import Spec

level = st.sampled_from(["org", "unibo", "node", "core", "x", "y9"])
topic_strategy = st.lists(level, min_size=1, max_size=6).map("/".join)


class TestBrokerProperties:
    @given(topics=st.lists(topic_strategy, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_hash_subscription_sees_every_message(self, topics):
        """Property: a '#' subscriber receives every published message."""
        broker = MQTTBroker()
        received = []
        broker.subscribe("#", received.append)
        for i, topic in enumerate(topics):
            broker.publish(topic, f"{i};{i}", retain=False)
        assert [m.topic for m in received] == topics

    @given(topic=topic_strategy)
    @settings(max_examples=50, deadline=None)
    def test_exact_subscription_matches_only_itself(self, topic):
        """Property: an exact-topic pattern matches exactly that topic."""
        assert topic_matches(topic, topic)
        assert not topic_matches(topic, topic + "/extra")

    @given(topics=st.lists(topic_strategy, min_size=1, max_size=10,
                           unique=True))
    @settings(max_examples=50, deadline=None)
    def test_retained_replay_equals_latest_per_topic(self, topics):
        """Property: a late subscriber sees one retained message per topic."""
        broker = MQTTBroker()
        for i, topic in enumerate(topics):
            broker.publish(topic, f"{i};{i}")
        received = []
        broker.subscribe("#", received.append)
        assert sorted(m.topic for m in received) == sorted(topics)


class TestTSDBProperties:
    @given(points=st.lists(
        st.tuples(st.floats(min_value=0, max_value=1e6),
                  st.floats(min_value=-1e9, max_value=1e9)),
        min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_insert_order_irrelevant(self, points):
        """Property: the stored series is sorted whatever the arrival order."""
        db = TimeSeriesDB()
        for t, v in points:
            db.insert("m", t, v)
        stored = db.query("m")
        assert [t for t, _v in stored] == sorted(t for t, _v in points)

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                           min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_aggregate_mean_bounded_by_min_max(self, values):
        """Property: every windowed mean lies within [min, max] of data."""
        db = TimeSeriesDB()
        for i, value in enumerate(values):
            db.insert("m", float(i), value)
        buckets = db.aggregate("m", 0.0, float(len(values)), window_s=7.0)
        for _t, mean in buckets:
            assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @given(increments=st.lists(st.floats(min_value=0.0, max_value=1e6),
                               min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_rate_of_monotone_counter_never_negative(self, increments):
        """Property: rates of a monotone counter are nonnegative."""
        db = TimeSeriesDB()
        total = 0.0
        for i, increment in enumerate(increments):
            total += increment
            db.insert("counter", float(i), total)
        assert all(rate >= 0.0 for _t, rate in db.rate("counter"))


class TestSpackProperties:
    @given(name=st.sampled_from(["hpl", "stream", "fftw", "openblas",
                                 "openmpi", "quantum-espresso"]))
    @settings(max_examples=20, deadline=None)
    def test_concretization_idempotent_hash(self, name):
        """Property: concretizing the same abstract spec twice gives the
        same DAG hash (full determinism of the resolver)."""
        first = Concretizer().concretize(Spec.parse(name))
        second = Concretizer().concretize(Spec.parse(name))
        assert first.dag_hash() == second.dag_hash()

    @given(name=st.sampled_from(["hpl", "fftw", "netlib-scalapack"]))
    @settings(max_examples=20, deadline=None)
    def test_traverse_is_topological(self, name):
        """Property: dependencies always precede dependents in traverse()."""
        concrete = Concretizer().concretize(Spec.parse(name))
        order = [node.name for node in concrete.traverse()]
        position = {pkg: i for i, pkg in enumerate(order)}
        for node in concrete.traverse():
            for dep in node.dependencies.values():
                assert position[dep.name] < position[node.name]


class TestKernelEdges:
    def test_engine_run_reentrancy_guarded(self):
        engine = Engine()

        def nested(env):
            yield env.timeout(1.0)
            with pytest.raises(SimulationError, match="already running"):
                # Deliberate misuse: this test asserts the runtime guard that
                # simlint rule ENG202 catches statically.
                env.run()  # simlint: disable=ENG202  (exercising the guard)

        engine.spawn(nested(engine))
        engine.run()

    def test_any_of_failure_propagates(self):
        engine = Engine()
        good = engine.timeout(5.0)
        bad = engine.event()
        combined = engine.any_of([good, bad])
        bad.fail(RuntimeError("child failed"))
        engine.run(until=1.0)
        with pytest.raises(RuntimeError, match="child failed"):
            _ = combined.value

    def test_all_of_failure_propagates(self):
        engine = Engine()
        good = engine.timeout(1.0)
        bad = engine.event()
        combined = engine.all_of([good, bad])
        bad.fail(ValueError("nope"))
        combined.defuse()  # nobody yields the condition; consumed via .value
        engine.run(until=2.0)
        assert combined.triggered
        with pytest.raises(ValueError):
            _ = combined.value

    def test_condition_with_already_processed_children(self):
        engine = Engine()
        done = engine.timeout(1.0, value="early")
        engine.run(until=2.0)
        combined = engine.all_of([done])
        assert combined.triggered
        assert combined.value == {done: "early"}
