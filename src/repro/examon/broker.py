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

Retained-flag semantics follow MQTT 3.1.1 §3.3.1.3: a message delivered
live to an existing subscriber carries ``retained=False``; a message
replayed from the retained store to a *new* subscriber carries
``retained=True``.  (An earlier revision inverted this — live deliveries
copied the publisher's ``retain`` request and replays reused the stored
flag — which made it impossible for a dashboard to tell a fresh sample
from a stale replay.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple

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
    """One published message (immutable; ``_replace`` derives a copy)."""

    topic: str
    payload: str
    timestamp_s: float
    retained: bool = False


@dataclass(slots=True, eq=False)
class Subscription:
    """One client subscription: a pattern and its delivery callback.

    Compared by identity, so unsubscribing one of two identical
    subscriptions removes that one and keeps the other's place in the
    delivery order.
    """

    client_id: str
    pattern: str
    callback: Callable[[MQTTMessage], None]


class MQTTBroker:
    """The transport layer of the ExaMon deployment."""

    def __init__(self, hostname: str = "mc-master") -> None:
        self.hostname = hostname
        #: Live subscriptions in subscription order (the delivery order).
        self._subscriptions: List[Subscription] = []
        self._retained: Dict[str, MQTTMessage] = {}
        #: Per-topic matching subscriptions, in subscription order.  Any
        #: subscribe clears the cache wholesale — a
        #: deployment's subscription set changes a handful of times per
        #: run, its topic set never.
        self._match_cache: Dict[str, List[Subscription]] = {}
        self.messages_published = 0
        self.messages_delivered = 0
        self.bytes_published = 0
        #: Publishes that filtered the live subscriptions for their topic
        #: (every other publish was a match-cache hit).
        self.match_cache_misses = 0
        #: Availability (chaos injection): a down broker refuses publishes.
        self.available = True
        #: Slow-broker fault: extra per-publish latency the *publishing*
        #: daemon must absorb (modelled client-side, since the broker
        #: object itself has no clock).  ``0`` means healthy.
        self.publish_delay_s = 0.0
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
    def subscribe(self, client_id: str, pattern: str,
                  callback: Callable[[MQTTMessage], None]) -> Subscription:
        """Register a wildcard subscription.

        Retained messages matching the pattern are delivered immediately
        with the retain flag **set**, per MQTT retained-message semantics
        (the subscriber can tell these replays from live traffic).
        """
        topic_matches(pattern, "probe")  # validates '#' placement
        subscription = Subscription(client_id=client_id, pattern=pattern,
                                    callback=callback)
        self._subscriptions.append(subscription)
        self._match_cache.clear()
        # Replay order is part of the subscribe contract (alphabetical);
        # this is a cold path — it runs once per subscription, not per
        # publish.
        for topic in sorted(self._retained):  # simlint: disable=PERF303
            if topic_matches(pattern, topic):
                callback(self._retained[topic]._replace(retained=True))
                self.messages_delivered += 1
        return subscription

    # -- publish -----------------------------------------------------------
    def publish(self, topic: str, payload: str, timestamp_s: float,
                retain: bool = True) -> int:
        """Publish one message; returns the number of deliveries.

        ExaMon retains the last sample per topic by default so that
        dashboards attaching mid-run render immediately.  Live deliveries
        carry ``retained=False`` (MQTT 3.1.1: the retain flag marks store
        replays, not the publisher's retain request).
        """
        subscriptions = self._match_cache.get(topic)
        # Only a cache miss can be a wildcard: wildcard topics raise here
        # and are never cached.
        if subscriptions is None and ("+" in topic or "#" in topic):
            raise ValueError(f"cannot publish to a wildcard topic: {topic!r}")
        if not self.available:
            self.publish_rejects += 1
            raise BrokerUnavailableError(
                f"broker {self.hostname!r} is down; connect refused")
        # What ``MQTTMessage(...)`` does, minus its Python-level frame.
        message = _tuple_new(MQTTMessage, (topic, payload, timestamp_s, False))
        self.messages_published += 1
        self.bytes_published += len(topic) + len(payload)
        if retain:
            self._retained[topic] = message
        if subscriptions is None:
            # list.remove keeps the survivors' relative order, so the
            # filter yields subscription order.
            subscriptions = [s for s in self._subscriptions
                             if topic_matches(s.pattern, topic)]
            self._match_cache[topic] = subscriptions
            self.match_cache_misses += 1
        for subscription in subscriptions:
            subscription.callback(message)
        # A callback that raises propagates past this count: a failed
        # delivery round counts no deliveries.
        delivered = len(subscriptions)
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
        """Bring the broker back up and clear any slow-mode penalty."""
        self.available = True
        self.publish_delay_s = 0.0

    def set_slow(self, delay_s: float) -> None:
        """Degrade the broker: every publish costs ``delay_s`` extra."""
        if delay_s < 0:
            raise ValueError("slow-broker delay cannot be negative")
        self.publish_delay_s = float(delay_s)
