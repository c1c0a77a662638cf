"""Tests for ExaMon transport: topics, payloads, broker."""

from math import isfinite

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.examon.broker import MQTTBroker
from repro.examon.payload import decode_payload, encode_payload
from repro.examon.topics import TopicSchema, topic_matches
from repro.examon.tsdb import TimeSeriesDB


class TestTopicSchema:
    SCHEMA = TopicSchema(org="unibo", cluster="montecimone")

    def test_pmu_topic_matches_table_ii(self):
        topic = self.SCHEMA.pmu_topic("mc-node-3", 2, "instructions")
        assert topic == ("org/unibo/cluster/montecimone/node/mc-node-3"
                         "/plugin/pmu_pub/chnl/data/core/2/instructions")

    def test_stats_topic_uses_dstat_pub_directory(self):
        # Table II quirk: stats_pub publishes under plugin/dstat_pub.
        topic = self.SCHEMA.stats_topic("mc-node-1", "load_avg.1m")
        assert "/plugin/dstat_pub/chnl/data/load_avg.1m" in topic

    def test_parse_pmu_topic(self):
        topic = self.SCHEMA.pmu_topic("mc-node-3", 2, "cycles")
        fields = self.SCHEMA.parse(topic)
        assert fields == {"org": "unibo", "cluster": "montecimone",
                          "node": "mc-node-3", "plugin": "pmu_pub",
                          "core": "2", "metric": "cycles"}

    def test_parse_stats_topic(self):
        fields = self.SCHEMA.parse(
            self.SCHEMA.stats_topic("mc-node-1", "temperature.cpu_temp"))
        assert fields["metric"] == "temperature.cpu_temp"
        assert "core" not in fields

    def test_parse_garbage_raises(self):
        with pytest.raises(ValueError):
            self.SCHEMA.parse("not/an/examon/topic")

    def test_negative_core_rejected(self):
        with pytest.raises(ValueError):
            self.SCHEMA.pmu_topic("n", -1, "cycles")


class TestWildcards:
    def test_plus_matches_one_level(self):
        assert topic_matches("a/+/c", "a/b/c")
        assert not topic_matches("a/+/c", "a/b/b2/c")

    def test_hash_matches_rest(self):
        assert topic_matches("a/#", "a/b/c/d")
        assert topic_matches("a/#", "a/b")

    def test_exact_match(self):
        assert topic_matches("a/b", "a/b")
        assert not topic_matches("a/b", "a/b/c")

    def test_interior_hash_rejected(self):
        with pytest.raises(ValueError):
            topic_matches("a/#/c", "a/b/c")

    def test_all_nodes_pattern_covers_both_plugins(self):
        schema = TopicSchema()
        pattern = schema.all_nodes_pattern()
        assert topic_matches(pattern, schema.pmu_topic("mc-node-5", 0, "cycles"))
        assert topic_matches(pattern, schema.stats_topic("mc-node-5", "procs.run"))

    @given(levels=st.lists(st.sampled_from(["a", "b", "node", "x1"]),
                           min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_hash_is_superset_of_everything_under_prefix(self, levels):
        """Property: 'prefix/#' matches every topic extending the prefix."""
        topic = "/".join(levels)
        assert topic_matches(levels[0] + "/#", topic) or len(levels) == 1


class TestPayload:
    def test_table_ii_format(self):
        assert encode_payload(42.5, 1000.0) == "42.5;1000.0"

    def test_roundtrip(self):
        value, ts = decode_payload(encode_payload(3.14, 99.0))
        assert (value, ts) == (3.14, 99.0)

    def test_malformed_payloads_raise(self):
        with pytest.raises(ValueError):
            decode_payload("no-separator")
        with pytest.raises(ValueError):
            decode_payload("abc;def")

    def test_non_numeric_value_rejected_on_encode(self):
        with pytest.raises(TypeError):
            encode_payload("hot", 1.0)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_value_rejected_on_encode(self, value):
        # bool subclasses int, but "True;0" is no payload the decoder
        # accepts: the caller must see the TypeError, not a silent
        # storage-side decode error.
        with pytest.raises(TypeError):
            encode_payload(value, 0.0)

    def test_int_value_still_encodes(self):
        assert decode_payload(encode_payload(7, 1.0)) == (7.0, 1.0)

    @pytest.mark.parametrize("payload", [
        "nan;0", "1;nan", "inf;0", "1;inf", "-inf;5", "1;-inf", "NaN;NaN"])
    def test_non_finite_fields_rejected_on_decode(self, payload):
        with pytest.raises(ValueError, match="non-finite"):
            decode_payload(payload)

    def test_non_finite_payload_counted_as_decode_error(self):
        broker = MQTTBroker()
        db = TimeSeriesDB()
        db.attach(broker, "#")
        broker.publish("s/t", "nan;1.0")
        broker.publish("s/t", "1.0;inf")
        broker.publish("s/t", "3.0;3.0")
        assert db.decode_errors == 2
        assert db.points_stored == 1
        assert db.query("s/t") == [(3.0, 3.0)]

    @given(value=st.floats(allow_nan=False, allow_infinity=False),
           ts=st.floats(min_value=0, max_value=1e12))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, value, ts):
        """Property: encode→decode is the identity on finite floats."""
        decoded_value, decoded_ts = decode_payload(encode_payload(value, ts))
        assert decoded_value == value
        assert decoded_ts == ts


def reference_encode_payload(value, timestamp_s):
    """``encode_payload`` before its timestamp memo, verbatim."""
    if not (isinstance(value, float)
            or (isinstance(value, int) and not isinstance(value, bool))):
        raise TypeError(f"value must be numeric, got {type(value).__name__}")
    return f"{value};{timestamp_s}"


def reference_decode_payload(payload):
    """``decode_payload`` verbatim: what a decode-side memo must match."""
    value_text, separator, ts_text = payload.partition(";")
    if not separator:
        raise ValueError(f"payload missing ';' separator: {payload!r}")
    try:
        value = float(value_text)
        timestamp_s = float(ts_text)
    except ValueError as exc:
        raise ValueError(f"non-numeric payload: {payload!r}") from exc
    if not (isfinite(value) and isfinite(timestamp_s)):
        raise ValueError(f"non-finite payload: {payload!r}")
    return value, timestamp_s


class LoudFloat(float):
    """A float subclass whose ``repr`` is not its text."""

    def __str__(self):
        return float.__repr__(self)

    def __repr__(self):
        return f"LoudFloat({float.__repr__(self)})"


def outcome(call, *args):
    """A call's result by ``repr`` (so ``-0.0`` differs from ``0.0``),
    or the class and message of what it raised."""
    try:
        return "ok", repr(call(*args))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def equal_copy(number):
    """A number equal to ``number`` of the same type, and a new object
    wherever the interpreter does not share one (small ints)."""
    return type(number)(str(number))


#: The numbers a value or a timestamp is drawn from: ``±0.0`` and ``0``
#: and ``1``/``1.0`` are equal with different texts; huge and tiny floats
#: take exponent notation; ``np.float64`` and ``LoudFloat`` are float
#: subclasses whose ``repr`` is not their text.
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, 1.0, 21.0, 1e16, 1e22, 1e-5, 5e-324,
                     1.7976931348623157e308, -2.5e-310]),
    st.floats(), st.integers(),
    st.floats().map(LoudFloat), st.floats().map(np.float64))
VALUES = st.one_of(NUMBERS, st.booleans(), st.text(max_size=3), st.none())
#: Field texts for hand-made payloads: malformed, non-numeric, non-finite
#: and a few that ``float`` accepts although no encoder writes them.
FIELDS = st.sampled_from(["abc", "", "nan", "inf", "-inf", "1e999", "1.0",
                          " 2.5", "1_0", "0x1", "-0.0"])
#: ``("encode", value, timestamp slot, pass an equal copy)`` or
#: ``("decode", payload kind, field)``.
CALLS = st.lists(st.one_of(
    st.tuples(st.just("encode"), VALUES, st.integers(0, 3), st.booleans()),
    st.tuples(st.just("decode"),
              st.sampled_from(["last", "value", "timestamp", "bare"]),
              FIELDS)), min_size=1, max_size=40)


class TestCodecMemos:
    """The codec against its stateless reference, over call sequences.

    ``encode_payload`` memoises the last timestamp text across calls, so
    each example is a sequence of interleaved encodes and decodes.  An
    encode passes one of a few timestamp objects, or an equal copy of one,
    so the memo sees both reuse and equal-but-distinct objects.  A decode
    reads the last encoded payload, or a hand-made payload that repeats
    its timestamp text with a bad value, or a bad timestamp, or no
    separator: the sequences a decode-side timestamp memo would have to
    get right.  Every call must give the reference's result, or raise the
    reference's exception class with its message.
    """

    @given(timestamps=st.lists(NUMBERS, min_size=1, max_size=4),
           calls=CALLS)
    @settings(max_examples=300, deadline=None)
    @example(timestamps=[0.0, -0.0],
             calls=[("encode", 1.0, 0, False), ("encode", 1.0, 1, False)])
    @example(timestamps=[1, 1.0],
             calls=[("encode", 2, 0, False), ("encode", 2, 1, False)])
    @example(timestamps=[5.0],
             calls=[("encode", 1.0, 0, False), ("decode", "last", ""),
                    ("decode", "value", "nan"), ("decode", "value", "abc"),
                    ("decode", "value", "inf"), ("decode", "last", "")])
    @example(timestamps=[5.0],
             calls=[("decode", "timestamp", "inf"),
                    ("decode", "timestamp", "inf"),
                    ("decode", "timestamp", "nan"),
                    ("decode", "timestamp", "nan")])
    def test_interleaved_calls_match_reference(self, timestamps, calls):
        last = "0.0;0.0"
        for call in calls:
            if call[0] == "encode":
                _kind, value, slot, copy = call
                timestamp_s = timestamps[slot % len(timestamps)]
                if copy:
                    timestamp_s = equal_copy(timestamp_s)
                got = outcome(encode_payload, value, timestamp_s)
                assert got == outcome(reference_encode_payload, value,
                                      timestamp_s)
                if got[0] == "ok":
                    last = encode_payload(value, timestamp_s)
                continue
            _kind, shape, field = call
            payload = {"last": last,
                       "value": f"{field};{last.partition(';')[2]}",
                       "timestamp": f"1.0;{field}",
                       "bare": field}[shape]
            assert outcome(decode_payload, payload) == outcome(
                reference_decode_payload, payload)

    def test_equal_timestamps_keep_their_own_text(self):
        assert encode_payload(1.0, 0.0) == "1.0;0.0"
        assert encode_payload(1.0, -0.0) == "1.0;-0.0"
        assert encode_payload(1.0, 7) == "1.0;7"
        assert encode_payload(1.0, 7.0) == "1.0;7.0"

    def test_float_subclasses_keep_their_text(self):
        assert encode_payload(LoudFloat(1.5), 2.0) == "1.5;2.0"
        assert encode_payload(np.float64(0.1), 2.0) == "0.1;2.0"


class TestBroker:
    def test_publish_delivers_to_matching_subscription(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("a/+/c", received.append)
        assert broker.publish("a/b/c", "1;2") == 1
        assert received[0].topic == "a/b/c"

    def test_non_matching_subscription_ignored(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("x/#", received.append)
        assert broker.publish("a/b", "1;2") == 0
        assert received == []

    def test_retained_message_delivered_to_late_subscriber(self):
        broker = MQTTBroker()
        broker.publish("a/b", "1;1")
        received = []
        broker.subscribe("a/#", received.append)
        assert len(received) == 1

    def test_wildcard_publish_rejected(self):
        with pytest.raises(ValueError):
            MQTTBroker().publish("a/+/c", "1;1")

    def test_statistics(self):
        broker = MQTTBroker()
        broker.subscribe("#", lambda m: None)
        broker.publish("t", "1;1")
        broker.publish("t", "2;2")
        assert broker.messages_published == 2
        assert broker.messages_delivered == 2
        assert broker.bytes_published > 0

    def test_retained_topics_sorted(self):
        broker = MQTTBroker()
        broker.publish("b/x", "1;1")
        broker.publish("a/y", "1;1")
        assert broker.retained_topics() == ["a/y", "b/x"]


class TestRetainedFlagSemantics:
    """MQTT 3.1.1 §3.3.1.3: a new subscriber gets each retained message."""

    def test_replay_preserves_topic_payload_and_timestamp(self):
        broker = MQTTBroker()
        broker.publish("a/b", "42.5;7.0")
        received = []
        broker.subscribe("#", received.append)
        assert received == [("a/b", "42.5;7.0")]

    def test_unretained_publish_not_replayed(self):
        broker = MQTTBroker()
        broker.publish("a/b", "1;1", retain=False)
        received = []
        broker.subscribe("#", received.append)
        assert received == []

    def test_replay_holds_only_the_latest_sample(self):
        broker = MQTTBroker()
        broker.publish("a/b", "1;1")
        broker.publish("a/b", "2;2")
        received = []
        broker.subscribe("a/b", received.append)
        assert received == [("a/b", "2;2")]

    def test_same_subscriber_sees_replay_then_live(self):
        broker = MQTTBroker()
        broker.publish("a/b", "1;1")
        received = []
        broker.subscribe("a/b", received.append)
        broker.publish("a/b", "2;2")
        assert received == [("a/b", "1;1"), ("a/b", "2;2")]

    def test_live_subscriber_is_not_replayed_to_again(self):
        # A replay goes to the subscription being made, never to the
        # subscribers that already received the message live.
        broker = MQTTBroker()
        early = []
        broker.subscribe("a/#", early.append)
        broker.publish("a/b", "1;1")
        broker.subscribe("a/#", lambda m: None)
        assert early == [("a/b", "1;1")]


class TestTopicTrie:
    """Matching over the topic tree: wildcards, order, the match cache."""

    def test_hash_pattern_matches_prefix_itself(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("a/#", received.append)
        broker.publish("a", "1;1")
        broker.publish("a/b/c", "1;1")
        assert [m.topic for m in received] == ["a", "a/b/c"]

    def test_root_hash_matches_everything(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("#", received.append)
        for topic in ("a", "a/b", "x/y/z"):
            broker.publish(topic, "1;1")
        assert len(received) == 3

    def test_overlapping_patterns_deliver_in_subscription_order(self):
        broker = MQTTBroker()
        order = []
        broker.subscribe("a/b/c", lambda m: order.append("exact"))
        broker.subscribe("#", lambda m: order.append("hash"))
        broker.subscribe("a/+/c", lambda m: order.append("plus"))
        assert broker.publish("a/b/c", "1;1") == 3
        assert order == ["exact", "hash", "plus"]

    def test_plus_does_not_match_deeper_topics(self):
        broker = MQTTBroker()
        received = []
        broker.subscribe("a/+", received.append)
        broker.publish("a/b/c", "1;1")
        broker.publish("a/b", "1;1")
        assert [m.topic for m in received] == ["a/b"]

    def test_second_publish_is_cache_hit(self):
        broker = MQTTBroker()
        broker.subscribe("a/+", lambda m: None)
        broker.publish("a/b", "1;1")
        assert (broker.match_cache_misses, broker.match_cache_hits) == (1, 0)
        broker.publish("a/b", "1;1")
        assert (broker.match_cache_misses, broker.match_cache_hits) == (1, 1)

    @given(patterns=st.lists(st.tuples(
        st.lists(st.sampled_from(["a", "b", "node", "+"]),
                 min_size=1, max_size=4),
        st.booleans()), min_size=1, max_size=5),
        topic_levels=st.lists(
        st.sampled_from(["a", "b", "node", "x1"]), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_deliveries_agree_with_topic_matches(self, patterns,
                                                 topic_levels):
        """Property: a publish reaches exactly the subscriptions
        ``topic_matches`` accepts, in subscription order.

        The topic is published once before the last subscription, so the
        check also covers the match cache being cleared.
        """
        topic = "/".join(topic_levels)
        broker = MQTTBroker()
        received = []
        subscriptions = []
        for i, (levels, trailing_hash) in enumerate(patterns):
            if i == len(patterns) - 1:
                broker.publish(topic, "1;1", retain=False)
            pattern = "/".join(levels + (["#"] if trailing_hash else []))
            subscriptions.append(broker.subscribe(
                pattern, lambda m, i=i: received.append(i)))
        received.clear()
        delivered = broker.publish(topic, "1;1", retain=False)
        expected = [i for i, s in enumerate(subscriptions)
                    if topic_matches(s.pattern, topic)]
        assert received == expected
        assert delivered == len(expected)
