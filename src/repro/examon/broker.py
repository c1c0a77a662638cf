"""The MQTT broker on the master node.

A topic-tree publish/subscribe broker with the subset of MQTT semantics
ExaMon uses: QoS-0 delivery (fire and forget), wildcard subscriptions,
retained messages (so a dashboard attaching late sees the last sample of
each series), and per-client delivery callbacks.  Delivery statistics are
kept because the paper's deployment cares about monitoring overhead.

Matching is cached per topic.  The sampling plugins publish the same
few hundred concrete topics every period, so only the first publish of a
topic filters the live subscriptions through
:func:`~repro.examon.topics.topic_matches` (the matcher retained replay
and the store's topic queries use too); every later publish of that
topic is a dict hit whose cost does not depend on the subscription
count.  ``match_cache_misses`` counts the filter runs; the observability
layer exposes the hits as the deterministic measure of matching work
(simulation code may not read the host wall clock).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.examon.topics import topic_matches

__all__ = ["MQTTMessage", "MQTTBroker", "Subscription",
           "BrokerUnavailableError"]


_tuple_new = tuple.__new__


class BrokerUnavailableError(ConnectionError):
    """A publish hit a broker that is down (the client's ``ECONNREFUSED``).

    Raised instead of silently dropping the message: QoS-0 loses messages
    in flight, but a *connect* failure is visible to the client, and the
    sampling plugins use it to switch into their buffer-and-reconnect
    path (see :class:`repro.examon.plugins.base.SamplingPlugin`).
    """


class MQTTMessage(NamedTuple):
    """One published message; the payload carries its own timestamp."""

    topic: str
    payload: str


@dataclass(slots=True, eq=False)
class Subscription:
    """One subscription: a pattern and its delivery callback.

    Compared by identity: two identical subscriptions are two
    deliveries, each in its own place in the delivery order.
    """

    pattern: str
    callback: Callable[[MQTTMessage], None]


class MQTTBroker:
    """The transport layer of the ExaMon deployment."""

    def __init__(self, hostname: str = "mc-master") -> None:
        self.hostname = hostname
        #: Live subscriptions in subscription order (the delivery order).
        self._subscriptions: List[Subscription] = []
        self._retained: Dict[str, MQTTMessage] = {}
        #: Per-topic delivery callbacks of the matching subscriptions, in
        #: subscription order.  Any subscribe clears the cache wholesale —
        #: a deployment's subscription set changes a handful of times per
        #: run, its topic set never.
        self._match_cache: Dict[str, Tuple[Callable[[MQTTMessage], None],
                                           ...]] = {}
        self.messages_published = 0
        self.messages_delivered = 0
        self.bytes_published = 0
        #: Publishes that filtered the live subscriptions for their topic
        #: (every other publish was a match-cache hit).
        self.match_cache_misses = 0
        #: Availability (chaos injection): a down broker refuses publishes.
        self.available = True
        #: Publishes refused while the broker was down.
        self.publish_rejects = 0

    @property
    def match_cache_hits(self) -> int:
        """Publishes whose subscription set came from the match cache."""
        return self.messages_published - self.match_cache_misses

    @property
    def subscription_count(self) -> int:
        """Live subscriptions across all clients."""
        return len(self._subscriptions)

    # -- subscribe ----------------------------------------------------------
    def subscribe(self, pattern: str,
                  callback: Callable[[MQTTMessage], None]) -> Subscription:
        """Register a wildcard subscription.

        Retained messages matching the pattern are delivered immediately,
        per MQTT retained-message semantics.
        """
        topic_matches(pattern, "probe")  # validates '#' placement
        subscription = Subscription(pattern=pattern, callback=callback)
        self._subscriptions.append(subscription)
        self._match_cache.clear()
        # Replay order is part of the subscribe contract (alphabetical);
        # this is a cold path — it runs once per subscription, not per
        # publish.
        for topic in sorted(self._retained):  # simlint: disable=PERF303
            if topic_matches(pattern, topic):
                callback(self._retained[topic])
                self.messages_delivered += 1
        return subscription

    # -- publish -----------------------------------------------------------
    def publish(self, topic: str, payload: str, retain: bool = True) -> int:
        """Publish one message; returns the number of deliveries.

        ExaMon retains the last sample per topic by default so that
        dashboards attaching mid-run render immediately.
        """
        callbacks = self._match_cache.get(topic)
        # Only a cache miss can be a wildcard: wildcard topics raise here
        # and are never cached.
        if callbacks is None and ("+" in topic or "#" in topic):
            raise ValueError(f"cannot publish to a wildcard topic: {topic!r}")
        if not self.available:
            self.publish_rejects += 1
            raise BrokerUnavailableError(
                f"broker {self.hostname!r} is down; connect refused")
        # What ``MQTTMessage(...)`` does, minus its Python-level frame.
        message = _tuple_new(MQTTMessage, (topic, payload))
        self.messages_published += 1
        self.bytes_published += len(topic) + len(payload)
        if retain:
            self._retained[topic] = message
        if callbacks is None:
            callbacks = tuple(s.callback for s in self._subscriptions
                              if topic_matches(s.pattern, topic))
            self._match_cache[topic] = callbacks
            self.match_cache_misses += 1
        for callback in callbacks:
            callback(message)
        # A callback that raises propagates past this count: a failed
        # delivery round counts no deliveries.
        delivered = len(callbacks)
        self.messages_delivered += delivered
        return delivered

    def retained_topics(self) -> List[str]:
        """Topics with a retained last sample, sorted."""
        return sorted(self._retained)  # simlint: disable=PERF303  (introspection endpoint, not on the publish path)

    # -- fault injection -----------------------------------------------------
    def go_offline(self) -> None:
        """Take the broker down: publishes raise until :meth:`restore`.

        Subscriptions and the retained store survive the outage (mosquitto
        restarted with persistence behaves the same way); only the live
        publish path is refused.
        """
        self.available = False

    def restore(self) -> None:
        """Bring the broker back up."""
        self.available = True
