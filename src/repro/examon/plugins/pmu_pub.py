"""pmu_pub: per-core performance counters at 2 Hz (§IV-B).

The plugin reads, in user mode through the perf_events interface, the
fixed INSTRET and CYCLE counters of every core — plus the programmable
HPM events once the authors' U-Boot patch has enabled them (``fp_ops``,
``l2_miss`` and ``load_store``, the events the core model counts; see
:data:`repro.hardware.hpm.PROGRAMMABLE_EVENTS`) — and publishes each
value on its Table II topic, five per patched core.  Counter values are
published as absolute counts; rate conversion happens at query time
(:meth:`repro.examon.tsdb.TimeSeriesDB.rate`), which is also how the
Fig. 5 instructions/s heatmap is produced.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cluster.node import ComputeNode
from repro.examon.broker import MQTTBroker
from repro.examon.plugins.base import SamplingPlugin
from repro.examon.topics import TopicSchema
from repro.hardware.hpm import FIXED_EVENTS, PROGRAMMABLE_EVENTS

__all__ = ["PmuPubPlugin"]

#: Size of a core's event set once the U-Boot patch has run.
_ALL_EVENTS = len(FIXED_EVENTS) + len(PROGRAMMABLE_EVENTS)


class PmuPubPlugin(SamplingPlugin):
    """The per-core PMU sampler."""

    DEFAULT_HZ = 2.0

    def __init__(self, node: ComputeNode, broker: MQTTBroker,
                 sample_hz: float = DEFAULT_HZ,
                 schema: Optional[TopicSchema] = None,
                 **hardening: object) -> None:
        # ``hardening`` forwards the outage knobs (buffer_limit,
        # reconnect_backoff) without restating the base signature.
        super().__init__(hostname=node.hostname, broker=broker,
                         sample_hz=sample_hz, schema=schema, **hardening)
        self.node = node
        #: The cores perf enumerates, ascending; fixed with the board.
        self._core_ids = node.board.perf.core_ids
        #: core_id → (event list the topics were built for, its
        #: ``(topic, event)`` pairs, whether the pairs are final).  The
        #: Table II topics are formatted once per event set, on first
        #: use, instead of once per read at 2 Hz × cores × events.
        #: Nothing disables a programmable bank once the U-Boot patch has
        #: enabled it, so a core's event set only grows: once it holds
        #: every event the pairs are final and ``available_events`` is
        #: no longer asked.
        self._core_topics: Dict[int, Tuple[List[str], List[Tuple[str, str]],
                                           bool]] = {}

    def sample(self, now_s: float) -> Dict[str, float]:
        """Read every available event on every core.

        With the stock U-Boot only ``cycles`` and ``instructions`` appear;
        the patched bootloader adds the programmable set (``fp_ops``,
        ``l2_miss``, ``load_store``) — the exact difference §IV-B
        describes.
        """
        self.node.settle()
        perf = self.node.board.perf
        read = perf.read
        core_topics = self._core_topics
        metrics: Dict[str, float] = {}
        for core_id in self._core_ids:
            cached = core_topics.get(core_id)
            if cached is None or not cached[2]:
                events = perf.available_events(core_id)
                if cached is None or cached[0] != events:
                    cached = core_topics[core_id] = (events, [
                        (self.schema.pmu_topic(self.hostname, core_id, event),
                         event) for event in events],
                        len(events) == _ALL_EVENTS)
            for topic, event in cached[1]:
                metrics[topic] = float(read(core_id, event))
        return metrics
