"""The storage backend: a time-series database fed by the broker.

Plays the role of ExaMon's Cassandra/KairosDB backend: it subscribes to
the cluster-wide data pattern, decodes payloads, and stores (time, value)
points per topic.  Queries support time ranges, window aggregation
(mean/max/min/sum/rate) and cross-series alignment — enough surface for
the Grafana-style dashboards and the batch REST API of §IV-B.
"""

from __future__ import annotations

import bisect
import operator
from array import array
from itertools import compress, repeat
from typing import Dict, List, Optional, Tuple

from repro.examon.broker import MQTTBroker, MQTTMessage
from repro.examon.payload import decode_payload
from repro.examon.topics import topic_matches

__all__ = ["TimeSeriesDB", "SeriesPoint"]

SeriesPoint = Tuple[float, float]  # (timestamp_s, value)

#: One stored series: parallel timestamp and value columns, sorted by
#: ``(timestamp, value)``.
_Columns = Tuple[array, array]

_AGGREGATORS = {
    "mean": lambda vals: sum(vals) / len(vals),
    "max": max,
    "min": min,
    "sum": sum,
    "last": lambda vals: vals[-1],
}


class TimeSeriesDB:
    """Topic-keyed time series with range queries and aggregation.

    Each series is stored as two parallel ``array('d')`` columns, one of
    timestamps and one of values, kept sorted by ``(timestamp, value)``
    — the order ``bisect.insort`` gives a list of ``(t, v)`` pairs.  A
    stored point costs 16 bytes instead of a tuple and two float objects,
    and range lookups bisect the timestamp column directly.
    """

    def __init__(self) -> None:
        self._series: Dict[str, _Columns] = {}
        self.points_stored = 0
        self.decode_errors = 0

    # -- ingestion ----------------------------------------------------------
    def attach(self, broker: MQTTBroker, pattern: str) -> None:
        """Subscribe this store to a broker pattern."""
        broker.subscribe(pattern, self.ingest)

    def ingest(self, message: MQTTMessage) -> None:
        """Store one MQTT message (malformed payloads are counted, kept out)."""
        try:
            value, timestamp = decode_payload(message.payload)
        except ValueError:
            self.decode_errors += 1
            return
        self.insert(message.topic, timestamp, value)

    def insert(self, topic: str, timestamp_s: float, value: float) -> None:
        """Direct insertion (plugins under test use this path).

        Live monitoring traffic is monotone per topic (each sampling
        daemon stamps its own clock), so the overwhelmingly common case
        appends one float to each column.  A point that sorts before the
        series' last ``(timestamp, value)`` pair lands where
        ``bisect.insort`` would put it among the pairs: after every
        stored point with a smaller timestamp, and among equal timestamps
        after every value that is not larger.
        """
        columns = self._series.get(topic)
        if columns is None:
            # Both columns are built before the series is stored, so a
            # non-numeric field (TypeError) leaves nothing behind.
            self._series[topic] = (array("d", (timestamp_s,)),
                                   array("d", (value,)))
        else:
            times, values = columns
            # The comparison rejects a non-numeric timestamp and the value
            # column is written first, so a failed insert changes nothing.
            if timestamp_s <= times[-1] and (
                    timestamp_s < times[-1] or value < values[-1]):
                lo = bisect.bisect_left(times, timestamp_s)
                hi = bisect.bisect_right(times, timestamp_s, lo)
                index = bisect.bisect_right(values, value, lo, hi)
                values.insert(index, value)
                times.insert(index, timestamp_s)
            else:
                values.append(value)
                times.append(timestamp_s)
        self.points_stored += 1

    # -- queries ------------------------------------------------------------
    def columns(self, topic: str, start_s: float = float("-inf"),
                end_s: float = float("inf")) -> Tuple[array, array]:
        """The timestamp and value columns of one series inside [start, end].

        Both are copies, so the caller may keep them; the timestamps are
        sorted, which lets readers bisect them.
        """
        columns = self._series.get(topic)
        if columns is None:
            return array("d"), array("d")
        times, values = columns
        lo = bisect.bisect_left(times, start_s)
        hi = bisect.bisect_right(times, end_s, lo)
        return times[lo:hi], values[lo:hi]

    def topics(self, pattern: str = "#") -> List[str]:
        """Stored topics matching an MQTT pattern."""
        return sorted(  # simlint: disable=PERF303  (query endpoint, not on the insert path)
            t for t in self._series if topic_matches(pattern, t))

    def query(self, topic: str, start_s: float = float("-inf"),
              end_s: float = float("inf")) -> List[SeriesPoint]:
        """Raw points of one series inside [start, end]."""
        return list(zip(*self.columns(topic, start_s, end_s)))

    def latest(self, topic: str) -> Optional[SeriesPoint]:
        """Most recent point of a series, or None."""
        columns = self._series.get(topic)
        if columns is None:
            return None
        times, values = columns
        return times[-1], values[-1]

    def aggregate(self, topic: str, start_s: float, end_s: float,
                  window_s: float, how: str = "mean") -> List[SeriesPoint]:
        """Window aggregation: one point per ``window_s`` bucket.

        Buckets are ``[start, start + window)`` half-open intervals
        labelled by their start time; empty buckets are omitted (Grafana's
        default null handling).  A point exactly at ``end_s`` is included
        only when a bucket *starting* before ``end_s`` covers it, matching
        the label contract — the last bucket is never labelled at or past
        ``end_s``.

        The scan is a single forward pass over the (sorted) points in
        range: each point is visited once and assigned to the bucket it
        falls in, so a query costs O(points + log(series)) regardless of
        how many buckets the window divides the range into.  (An earlier
        revision rescanned the full point list for every bucket —
        O(points × buckets) — and carried a vestigial bucket counter whose
        ``i <= len(points)`` guard silently truncated aggregations with
        more leading empty buckets than stored points.)
        """
        if window_s <= 0:
            raise ValueError("window must be positive")
        if how not in _AGGREGATORS:
            raise KeyError(f"unknown aggregator {how!r}; choose from "
                           f"{sorted(_AGGREGATORS)}")  # simlint: disable=PERF303  (error path)
        aggregate = _AGGREGATORS[how]
        points = self.query(topic, start_s, end_s)
        out: List[SeriesPoint] = []
        idx, n_points = 0, len(points)
        bucket_start = start_s
        while bucket_start < end_s and idx < n_points:
            bucket_end = bucket_start + window_s
            # Points before the first bucket cannot exist (query() already
            # clipped at start_s), so idx only ever moves forward.
            bucket_vals: List[float] = []
            while idx < n_points:
                t, v = points[idx]
                if t >= bucket_end:
                    break
                bucket_vals.append(v)
                idx += 1
            if bucket_vals:
                out.append((bucket_start, aggregate(bucket_vals)))
            bucket_start = bucket_end
        return out

    def rate(self, topic: str, start_s: float = float("-inf"),
             end_s: float = float("inf")) -> List[SeriesPoint]:
        """First-difference rate of a (monotone) counter series, per second.

        The ``(t, rate)`` points of :meth:`rate_columns`, for the REST API.
        """
        return list(zip(*self.rate_columns(topic, start_s, end_s)))

    def rate_columns(self, topic: str, start_s: float = float("-inf"),
                     end_s: float = float("inf")) -> Tuple[array, List[float]]:
        """First-difference rate of a counter series, as ``(times, rates)``.

        This is how the dashboards turn the INSTRET counter into the
        instructions/s heatmap of Fig. 5.  Each pair of consecutive points
        in [start, end] gives the rate ``max(v1 - v0, 0.0) / (t1 - t0)``
        at ``t1``: a counter reset (value drop, e.g. a node reboot) yields
        a zero rate rather than a negative spike, and a pair with
        ``t1 - t0 <= 0`` (equal timestamps) is skipped.

        The differences are taken column-wise by ``map(operator.sub, ...)``
        and the rule's two exceptions are looked for before they are
        applied, so a series without equal timestamps or resets costs no
        per-point Python code.  ``times`` is sorted, like the store.
        """
        times, values = self.columns(topic, start_s, end_s)
        ends = times[1:]
        dts = list(map(operator.sub, ends, times))
        dvs = list(map(operator.sub, values[1:], values))
        # A NaN difference needs neither exception; when ``min`` returns
        # one, the test fails and the exact path below runs anyway.
        if dts and not min(dts) > 0:
            kept = [not dt <= 0 for dt in dts]
            ends = array("d", compress(ends, kept))
            dts = list(compress(dts, kept))
            dvs = list(compress(dvs, kept))
        if dvs and not min(dvs) >= 0.0:
            dvs = list(map(max, dvs, repeat(0.0)))
        return ends, list(map(operator.truediv, dvs, dts))
