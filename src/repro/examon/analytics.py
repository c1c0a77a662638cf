"""ExaMon analytics: anomaly detection over monitored series.

§II positions ExaMon's visualization-and-analytics layer as "targeting
anomaly detection and intrusion detection systems"; §V-C shows the human
version of that loop — operators staring at dashboards until they spot the
thermal hazard.  This module closes the loop programmatically:

* :class:`ZScoreDetector` — cross-sectional outlier detection across the
  cluster's nodes at each sampling instant (node 7 is a thermal outlier
  long before it trips);
* :class:`TrendDetector` — per-series rate-of-rise analysis with
  time-to-threshold extrapolation (predicts the 107 °C trip minutes in
  advance, which is exactly what a DTM policy would consume);
* :func:`scan_cluster_temperatures` — the convenience sweep the
  monitoring examples use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.examon.topics import TopicSchema
from repro.examon.tsdb import TimeSeriesDB
from repro.thermal.runaway import TRIP_CELSIUS

__all__ = ["Anomaly", "ZScoreDetector", "TrendDetector",
           "scan_cluster_temperatures"]


@dataclass(frozen=True)
class Anomaly:
    """One detected anomaly."""

    time_s: float
    subject: str          # node or series the anomaly is about
    kind: str             # "outlier" | "trend"
    value: float
    detail: str


class ZScoreDetector:
    """Cross-sectional outlier detection across nodes.

    At each sampling instant, a node whose reading deviates from the
    cluster mean by more than ``threshold`` standard deviations is
    anomalous.  Robust to the *common-mode* load signal: when all eight
    nodes run HPL, all get hot together; only the badly-seated one
    stands out.
    """

    def __init__(self, threshold: float = 2.5,
                 min_absolute_spread: float = 2.0) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.threshold = threshold
        self.min_absolute_spread = min_absolute_spread

    def scan(self, time_s: float,
             readings: Dict[str, float]) -> List[Anomaly]:
        """Check one instant's cross-section of per-node readings."""
        if len(readings) < 3:
            return []  # no meaningful statistics on fewer than 3 nodes
        values = list(readings.values())
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        std = math.sqrt(variance)
        anomalies = []
        for subject, value in sorted(readings.items()):  # simlint: disable=PERF303  (analysis sweep, runs once per scan not per publish)
            deviation = abs(value - mean)
            if deviation < self.min_absolute_spread:
                continue
            if std > 0 and deviation / std >= self.threshold:
                anomalies.append(Anomaly(
                    time_s=time_s, subject=subject, kind="outlier",
                    value=value,
                    detail=(f"{deviation / std:.1f}σ from cluster mean "
                            f"{mean:.1f}")))
        return anomalies


class TrendDetector:
    """Per-series rate-of-rise detection with time-to-threshold estimate.

    Fits a least-squares line to the last ``window_s`` of a series; if the
    slope is positive and the extrapolated threshold crossing is within
    ``horizon_s``, an anomaly is raised carrying the predicted crossing
    time — the predictive alarm a thermal governor wants.
    """

    def __init__(self, threshold: float, window_s: float = 120.0,
                 horizon_s: float = 900.0) -> None:
        self.threshold = threshold
        self.window_s = window_s
        self.horizon_s = horizon_s

    @staticmethod
    def _fit_line(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
        """Least-squares (slope, intercept) fit."""
        n = len(points)
        mean_t = sum(t for t, _v in points) / n
        mean_v = sum(v for _t, v in points) / n
        num = sum((t - mean_t) * (v - mean_v) for t, v in points)
        den = sum((t - mean_t) ** 2 for t, _v in points)
        if den == 0:
            return 0.0, mean_v
        slope = num / den
        return slope, mean_v - slope * mean_t

    def predict_crossing(self, points: Sequence[Tuple[float, float]]
                         ) -> Optional[float]:
        """Predicted time the fitted line reaches the threshold, or None."""
        if len(points) < 4:
            return None
        slope, intercept = self._fit_line(points)
        if slope <= 0:
            return None
        crossing = (self.threshold - intercept) / slope
        latest = points[-1][0]
        if crossing <= latest:
            return latest  # already above threshold by the fit
        return crossing

    def scan(self, subject: str,
             points: Sequence[Tuple[float, float]]) -> List[Anomaly]:
        """Check one series' recent window for a dangerous rising trend."""
        if not points:
            return []
        latest_t = points[-1][0]
        window = [(t, v) for t, v in points if t >= latest_t - self.window_s]
        crossing = self.predict_crossing(window)
        if crossing is None or crossing - latest_t > self.horizon_s:
            return []
        return [Anomaly(
            time_s=latest_t, subject=subject, kind="trend",
            value=window[-1][1],
            detail=(f"predicted to reach {self.threshold:.0f} "
                    f"in {crossing - latest_t:.0f} s"))]


def scan_cluster_temperatures(db: TimeSeriesDB, hostnames: Sequence[str],
                              start_s: float, end_s: float,
                              schema: Optional[TopicSchema] = None
                              ) -> List[Anomaly]:
    """Run both detectors over the cluster's cpu_temp series.

    Returns the merged, time-ordered anomaly list — the programmatic
    version of the §V-C dashboard inspection that found the node 7 hazard.
    """
    schema = schema if schema is not None else TopicSchema()
    series = {host: db.query(schema.stats_topic(host, "temperature.cpu_temp"),
                             start_s, end_s)
              for host in hostnames}

    anomalies: List[Anomaly] = []
    trend = TrendDetector(threshold=TRIP_CELSIUS)
    for host, points in series.items():
        anomalies.extend(trend.scan(host, points))

    # Cross-sectional scan at each common sampling instant.
    zscore = ZScoreDetector()
    all_times = sorted(  # simlint: disable=PERF303  (offline report sweep, not per event)
        {t for points in series.values() for t, _v in points})
    for time_s in all_times:
        cross_section = {}
        for host, points in series.items():
            at_instant = [v for t, v in points if t == time_s]
            if at_instant:
                cross_section[host] = at_instant[0]
        anomalies.extend(zscore.scan(time_s, cross_section))

    return sorted(anomalies,  # simlint: disable=PERF303  (once per scan, output ordering contract)
                  key=lambda a: (a.time_s, a.subject))
