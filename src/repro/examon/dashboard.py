"""Grafana-style dashboard views over the time-series store.

Builds the two figures ExaMon produces in the paper:

* **Fig. 5** — per-node heatmaps during an HPL run: instructions/s (rate
  of the per-core INSTRET counters summed over cores), network traffic
  (rate of net_total.*), memory usage;
* **Fig. 6** — the thermal timeline with the node 7 runaway.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.examon.topics import TopicSchema
from repro.examon.tsdb import TimeSeriesDB

__all__ = ["Heatmap", "Dashboard"]


@dataclass
class Heatmap:
    """A node × time matrix of one metric.

    ``rows`` maps hostname → list of per-bucket values; all rows share
    ``times`` (bucket start times).  Missing buckets carry ``None``.
    """

    metric: str
    times: List[float]
    rows: Dict[str, List[Optional[float]]]

    def node_mean(self, hostname: str) -> float:
        """Mean over the non-empty buckets of one node's row."""
        values = [v for v in self.rows[hostname] if v is not None]
        if not values:
            raise ValueError(f"no data for {hostname} in {self.metric}")
        return sum(values) / len(values)

    def render_ascii(self, width: int = 40) -> str:
        """A quick-look ASCII rendering (one row per node)."""
        flat = [v for row in self.rows.values() for v in row if v is not None]
        if not flat:
            return f"[{self.metric}: no data]"
        lo, hi = min(flat), max(flat)
        shades = " .:-=+*#%@"
        if hi == lo:
            # Flat field: render a uniform mid shade rather than blanks.
            lo, hi = lo - 1.0, hi + 1.0
        span = hi - lo
        lines = [f"heatmap: {self.metric}  [{lo:.3g} .. {hi:.3g}]"]
        for host in sorted(self.rows):  # simlint: disable=PERF303  (render path, runs once per dashboard refresh)
            cells = self.rows[host][:width]
            line = "".join(
                shades[min(int((v - lo) / span * (len(shades) - 1)),
                           len(shades) - 1)] if v is not None else " "
                for v in cells)
            lines.append(f"{host:>12} |{line}|")
        return "\n".join(lines)


class Dashboard:
    """The cluster dashboards of §IV-B / §V-C."""

    def __init__(self, db: TimeSeriesDB, hostnames: List[str],
                 schema: Optional[TopicSchema] = None,
                 n_cores: int = 4) -> None:
        self.db = db
        self.hostnames = list(hostnames)
        self.schema = schema if schema is not None else TopicSchema()
        self.n_cores = n_cores

    # -- Fig. 5 -------------------------------------------------------------
    def instructions_heatmap(self, start_s: float, end_s: float,
                             window_s: float = 10.0) -> Heatmap:
        """Instructions/s per node (sum of per-core INSTRET rates)."""
        times = self._bucket_times(start_s, end_s, window_s)
        rows: Dict[str, List[Optional[float]]] = {}
        for host in self.hostnames:
            topics = [self.schema.pmu_topic(host, core, "instructions")
                      for core in range(self.n_cores)]
            rows[host] = self._sum_of_rates(topics, start_s, end_s, window_s,
                                            len(times))
        return Heatmap(metric="instructions/s", times=times, rows=rows)

    def network_heatmap(self, start_s: float, end_s: float,
                        window_s: float = 10.0) -> Heatmap:
        """Bytes/s per node (receive + send rates)."""
        times = self._bucket_times(start_s, end_s, window_s)
        rows: Dict[str, List[Optional[float]]] = {}
        for host in self.hostnames:
            topics = [self.schema.stats_topic(host, metric)
                      for metric in ("net_total.recv", "net_total.send")]
            rows[host] = self._sum_of_rates(topics, start_s, end_s, window_s,
                                            len(times))
        return Heatmap(metric="net bytes/s", times=times, rows=rows)

    def memory_heatmap(self, start_s: float, end_s: float,
                       window_s: float = 10.0) -> Heatmap:
        """Memory used (bytes) per node."""
        times = self._bucket_times(start_s, end_s, window_s)
        rows: Dict[str, List[Optional[float]]] = {}
        for host in self.hostnames:
            topic = self.schema.stats_topic(host, "memory_usage.used")
            rows[host] = self._bucket_means(
                *self.db.columns(topic, start_s, end_s), start_s, window_s,
                len(times))
        return Heatmap(metric="memory used", times=times, rows=rows)

    # -- Fig. 6 -------------------------------------------------------------
    def thermal_timeline(self, start_s: float, end_s: float,
                         sensor: str = "cpu_temp") -> Dict[str, List]:
        """Per-node temperature series (the Fig. 6 plot data)."""
        series = {}
        for host in self.hostnames:
            topic = self.schema.stats_topic(host, f"temperature.{sensor}")
            series[host] = self.db.query(topic, start_s, end_s)
        return series

    def peak_temperatures(self, start_s: float, end_s: float) -> Dict[str, float]:
        """Per-node maximum SoC temperature in a window."""
        peaks = {}
        for host, points in self.thermal_timeline(start_s, end_s).items():
            if points:
                peaks[host] = max(v for _t, v in points)
        return peaks

    # -- helpers -------------------------------------------------------------
    @staticmethod
    def _bucket_times(start_s: float, end_s: float,
                      window_s: float) -> List[float]:
        if window_s <= 0:
            raise ValueError("window must be positive")
        if end_s <= start_s:
            raise ValueError("empty time range")
        times = []
        t = start_s
        while t < end_s:
            times.append(t)
            t += window_s
        return times

    @staticmethod
    def _bucket_means(times: Sequence[float], values: Sequence[float],
                      start_s: float, window_s: float,
                      n_buckets: int) -> List[Optional[float]]:
        """Per-bucket mean of a series sorted by time; ``None`` if empty.

        A point belongs to bucket ``int((t - start_s) / window_s)`` and is
        kept when ``0 <= index < n_buckets`` (``int()`` truncates toward
        zero, so a point less than a window before ``start_s`` lands in
        bucket 0).  The index never decreases along sorted times, so each
        bucket is one slice of the columns, found by bisecting with that
        same index as the key; its mean is the builtin ``sum()`` of the
        slice in stored order over its length, the same operands in the
        same order as a per-point scan.
        """
        def index(t: float) -> int:
            return int((t - start_s) / window_s)

        means: List[Optional[float]] = []
        lo = bisect.bisect_left(times, 0, key=index)
        for bucket in range(1, n_buckets + 1):
            hi = bisect.bisect_left(times, bucket, lo, key=index)
            means.append(sum(values[lo:hi]) / (hi - lo) if hi > lo else None)
            lo = hi
        return means

    def _sum_of_rates(self, topics: List[str], start_s: float, end_s: float,
                      window_s: float, n_buckets: int) -> List[Optional[float]]:
        """Per-bucket sum of the topics' rate series, added in topic order;
        ``None`` where no topic has a value."""
        total = [0.0] * n_buckets
        seen = [False] * n_buckets
        for topic in topics:
            bucketed = self._bucket_means(
                *self.db.rate_columns(topic, start_s, end_s), start_s,
                window_s, n_buckets)
            for i, value in enumerate(bucketed):
                if value is not None:
                    total[i] += value
                    seen[i] = True
        return [total[i] if seen[i] else None for i in range(n_buckets)]
