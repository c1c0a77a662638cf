"""Plugin base: periodic sampling into the MQTT transport.

Failure semantics (the chaos harness leans on these):

* **Cadence** — the daemon samples *first*, then sleeps, so the boot
  window ``t=0..period`` is monitored.  (An earlier revision slept a full
  period before its first sample and left that window blind.)
* **Broker outage** — a refused publish flips the plugin into a
  disconnected state: samples keep landing in a bounded in-memory buffer
  (drop-oldest beyond ``buffer_limit``, like mosquitto's client queue),
  reconnect attempts follow a seeded exponential backoff, and on
  reconnect the buffer is *backfilled* — republished with the original
  sample timestamps, so the TSDB series covers the outage window.
* **Sensor faults** — subclasses report per-sensor read failures through
  :meth:`note_target_fault` / :meth:`note_target_recovered`; the base
  class records a ``chaos.recovery`` span once the sensor reads again.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from itertools import islice
from typing import Deque, Dict, Generator, Optional, Tuple

from repro.events.backoff import ExponentialBackoff
from repro.events.engine import Engine, Event
from repro.examon.broker import BrokerUnavailableError, MQTTBroker
from repro.examon.payload import encode_payload
from repro.examon.topics import TopicSchema

__all__ = ["SamplingPlugin"]

#: One buffered sample awaiting backfill: (topic, value, timestamp_s).
_BufferedSample = Tuple[str, float, float]


class SamplingPlugin(ABC):
    """A node-resident daemon publishing samples at a fixed rate.

    Subclasses implement :meth:`sample`, returning topic → value for one
    sampling instant; the base class handles the MQTT encoding, the
    publish loop, outage buffering/reconnect/backfill, and sample
    accounting.
    """

    #: Bounded publish buffer: samples held across a broker outage.
    DEFAULT_BUFFER_LIMIT = 4096

    def __init__(self, hostname: str, broker: MQTTBroker,
                 sample_hz: float, schema: Optional[TopicSchema] = None,
                 buffer_limit: int = DEFAULT_BUFFER_LIMIT,
                 reconnect_backoff: Optional[ExponentialBackoff] = None) -> None:
        if sample_hz <= 0:
            raise ValueError("sampling rate must be positive")
        if buffer_limit < 1:
            raise ValueError("buffer limit must be at least one sample")
        self.hostname = hostname
        self.broker = broker
        self.sample_hz = sample_hz
        self.schema = schema if schema is not None else TopicSchema()
        self.samples_taken = 0
        self._running = False
        self._engine: Optional[Engine] = None
        # -- outage state ---------------------------------------------------
        self.buffer_limit = buffer_limit
        self.reconnect_backoff = (reconnect_backoff if reconnect_backoff
                                  is not None else ExponentialBackoff(
                                      base_s=1.0, factor=2.0, max_s=30.0))
        self._buffer: Deque[_BufferedSample] = deque()
        self._connected = True
        self._disconnected_at_s = 0.0
        self._reconnect_attempt = 0
        self._next_reconnect_s = 0.0
        # -- degradation counters ------------------------------------------
        self.publish_failures = 0
        self.reconnect_attempts = 0
        self.samples_buffered = 0
        self.samples_dropped = 0
        self.samples_backfilled = 0
        self.sensor_faults = 0
        #: (kind, target) → simulated time the fault was first observed.
        self._fault_since: Dict[Tuple[str, str], float] = {}

    @property
    def period_s(self) -> float:
        """Sampling period in seconds."""
        return 1.0 / self.sample_hz

    @property
    def connected(self) -> bool:
        """Whether the plugin currently believes the broker is reachable."""
        return self._connected

    @property
    def buffered_samples(self) -> int:
        """Samples currently waiting for backfill."""
        return len(self._buffer)

    @abstractmethod
    def sample(self, now_s: float) -> Dict[str, float]:
        """One sampling instant: topic → numeric value."""

    def publish_once(self, now_s: float) -> int:
        """Take one sample and publish every metric; returns publish count.

        The direct path — a down broker raises
        :class:`~repro.examon.broker.BrokerUnavailableError` straight
        through.  The daemon loop uses the hardened
        :meth:`sample_and_publish` instead.
        """
        metrics = self.sample(now_s)
        # Counted before publishing, as in :meth:`sample_and_publish`: a
        # refused publish does not un-take the sample.
        self.samples_taken += 1
        for topic, value in metrics.items():
            self.broker.publish(topic, encode_payload(value, now_s))
        return len(metrics)

    # -- hardened sampling path ---------------------------------------------
    def sample_and_publish(self, now_s: float) -> int:
        """One sampling instant of the daemon loop; never raises on outage.

        Returns the number of metrics delivered to the broker this instant
        (0 while disconnected — those samples went to the buffer).
        """
        metrics = self.sample(now_s)
        self.samples_taken += 1
        if not self._connected:
            self._buffer_metrics(metrics, now_s)
            self._maybe_reconnect(now_s)
            return 0
        # Batched publish: the whole node's metric set goes out under one
        # try block with the broker method and the encoder bound once,
        # instead of a list copy plus a per-metric exception frame.
        # Broker availability cannot change mid-batch (nothing yields to
        # the engine here), so the only divergence point is the broker
        # refusing the connect — in which case ``published`` marks where
        # the batch stopped and the failed metric onwards is buffered.
        publish = self.broker.publish
        encode = encode_payload
        published = 0
        try:
            for topic, value in metrics.items():
                publish(topic, encode(value, now_s))
                published += 1
        except BrokerUnavailableError:
            self._buffer_metrics(dict(islice(metrics.items(), published,
                                             None)), now_s)
            self._disconnect(now_s)
        return published

    def _buffer_metrics(self, metrics: Dict[str, float], now_s: float) -> None:
        for topic, value in metrics.items():
            if len(self._buffer) >= self.buffer_limit:
                self._buffer.popleft()  # drop-oldest, like a client queue
                self.samples_dropped += 1
            self._buffer.append((topic, value, now_s))
            self.samples_buffered += 1

    def _disconnect(self, now_s: float) -> None:
        self.publish_failures += 1
        self._connected = False
        self._disconnected_at_s = now_s
        self._reconnect_attempt = 0
        self._next_reconnect_s = now_s + self.reconnect_backoff.delay(0)

    def _maybe_reconnect(self, now_s: float) -> None:
        if now_s + 1e-9 < self._next_reconnect_s:
            return  # still backing off
        self.reconnect_attempts += 1
        if not self.broker.available:
            self._reconnect_attempt += 1
            self._next_reconnect_s = now_s + self.reconnect_backoff.delay(
                self._reconnect_attempt)
            return
        self._reconnect(now_s)

    def _reconnect(self, now_s: float) -> None:
        """Broker reachable again: backfill the buffer, resume live mode."""
        backfilled = 0
        while self._buffer:
            topic, value, timestamp_s = self._buffer[0]
            try:
                # Original sample timestamp: the payload clock (which the
                # TSDB indexes by) covers the outage window, and
                # chronological flush order keeps the retained store's
                # last-sample-per-topic invariant.
                self.broker.publish(topic, encode_payload(value, timestamp_s))
            except BrokerUnavailableError:
                # Flapped down again mid-backfill; keep the rest buffered.
                self._disconnect(now_s)
                return
            self._buffer.popleft()
            backfilled += 1
        self.samples_backfilled += backfilled
        self._connected = True
        self._record_recovery("broker-outage", self.broker.hostname,
                              self._disconnected_at_s, now_s,
                              backfilled=backfilled,
                              attempts=self.reconnect_attempts)

    # -- per-sensor fault tracking (subclass hooks) ---------------------------
    def note_target_fault(self, kind: str, target: str, now_s: float) -> None:
        """Record a per-target read failure (first failure starts the clock)."""
        if (kind, target) not in self._fault_since:
            self._fault_since[(kind, target)] = now_s
        self.sensor_faults += 1

    def note_target_recovered(self, kind: str, target: str,
                              now_s: float) -> None:
        """Record a successful read of a previously-failed target."""
        started = self._fault_since.pop((kind, target), None)
        if started is not None:
            self._record_recovery(kind, target, started, now_s)

    def _record_recovery(self, kind: str, target: str, start_s: float,
                         end_s: float, **attributes: float) -> None:
        """Emit a completed ``chaos.recovery`` span when the engine is traced."""
        engine = self._engine
        if engine is None or engine.tracer is None:
            return
        engine.tracer.record(f"recovery:{kind}:{target}", start_s, end_s,
                             category="chaos.recovery", kind=kind,
                             target=target, component=f"plugin@{self.hostname}",
                             **attributes)

    # -- daemon loop ----------------------------------------------------------
    def run(self, engine: Engine) -> Generator[Event, None, None]:
        """The daemon loop as a simulation process.

        Samples immediately (t=0 of the daemon's life), then sleeps one
        period per iteration.
        """
        self._running = True
        self._engine = engine
        while self._running:
            self.sample_and_publish(engine.now)
            yield engine.timeout(self.period_s)
            # A stop() issued while sleeping lands here: the while guard
            # exits without a trailing sample.

    def stop(self) -> None:
        """Stop the daemon at its next wakeup."""
        self._running = False
