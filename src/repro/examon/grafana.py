"""Grafana dashboard definitions for the ExaMon deployment.

§IV-B: "Through an instance of Grafana connected to the database it is
possible to visualize the trend of the metrics in real time".  Operations
teams keep those dashboards as JSON under version control; this module
generates the dashboard definitions for the two views the paper shows —
the Fig. 5 cluster heatmaps and the Fig. 6 thermal timeline — targeting
the ExaMon REST datasource.

The output is a plain dict matching Grafana's dashboard JSON model
(schema subset: title/panels/targets/gridPos); :func:`export_dashboard`
serialises it.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.examon.topics import TopicSchema
from repro.thermal.runaway import TRIP_CELSIUS, WARNING_CELSIUS

__all__ = ["build_cluster_dashboard", "build_thermal_dashboard",
           "export_dashboard"]

_PANEL_WIDTH = 24
_PANEL_HEIGHT = 8


def _panel(panel_id: int, title: str, panel_type: str, y: int,
           targets: List[Dict]) -> Dict:
    return {
        "id": panel_id,
        "title": title,
        "type": panel_type,
        "gridPos": {"h": _PANEL_HEIGHT, "w": _PANEL_WIDTH, "x": 0, "y": y},
        "datasource": {"type": "examon-rest", "uid": "examon"},
        "targets": targets,
    }


def _rate_target(ref_id: str, topic_pattern: str) -> Dict:
    return {"refId": ref_id, "endpoint": "/api/rate",
            "params": {"topic": topic_pattern}}


def _query_target(ref_id: str, topic_pattern: str) -> Dict:
    return {"refId": ref_id, "endpoint": "/api/query",
            "params": {"topic": topic_pattern}}


def build_cluster_dashboard(hostnames: List[str],
                            schema: Optional[TopicSchema] = None,
                            n_cores: int = 4) -> Dict:
    """The Fig. 5 dashboard: instruction, network and memory heatmaps."""
    schema = schema if schema is not None else TopicSchema()
    panels = []
    instruction_targets = [
        _rate_target(f"I{i}_{c}",
                     schema.pmu_topic(host, c, "instructions"))
        for i, host in enumerate(hostnames) for c in range(n_cores)]
    panels.append(_panel(1, "Instructions/s per node", "heatmap", 0,
                         instruction_targets))
    network_targets = [
        _rate_target(f"N{i}_{direction}",
                     schema.stats_topic(host, f"net_total.{direction}"))
        for i, host in enumerate(hostnames)
        for direction in ("recv", "send")]
    panels.append(_panel(2, "Network traffic per node", "heatmap",
                         _PANEL_HEIGHT, network_targets))
    memory_targets = [
        _query_target(f"M{i}", schema.stats_topic(host, "memory_usage.used"))
        for i, host in enumerate(hostnames)]
    panels.append(_panel(3, "Memory usage per node", "heatmap",
                         2 * _PANEL_HEIGHT, memory_targets))
    return {
        "title": "Monte Cimone — HPL cluster view (Fig. 5)",
        "uid": "mc-cluster",
        "tags": ["montecimone", "examon"],
        "refresh": "5s",
        "panels": panels,
        "schemaVersion": 39,
    }


def build_thermal_dashboard(hostnames: List[str],
                            schema: Optional[TopicSchema] = None) -> Dict:
    """The Fig. 6 dashboard: per-node SoC temperatures with the watchdog's
    warning and trip lines."""
    schema = schema if schema is not None else TopicSchema()
    targets = [
        _query_target(f"T{i}",
                      schema.stats_topic(host, "temperature.cpu_temp"))
        for i, host in enumerate(hostnames)]
    panel = _panel(1, "SoC temperature per node", "timeseries", 0, targets)
    panel["fieldConfig"] = {
        "defaults": {
            "unit": "celsius",
            "thresholds": {"mode": "absolute", "steps": [
                {"color": "green", "value": None},
                {"color": "orange", "value": WARNING_CELSIUS},
                {"color": "red", "value": TRIP_CELSIUS},
            ]},
        }
    }
    return {
        "title": "Monte Cimone — thermal (Fig. 6)",
        "uid": "mc-thermal",
        "tags": ["montecimone", "examon", "thermal"],
        "refresh": "5s",
        "panels": [panel],
        "schemaVersion": 39,
    }


def export_dashboard(dashboard: Dict) -> str:
    """Serialise a dashboard to committed-to-git JSON (stable ordering)."""
    return json.dumps(dashboard, indent=2, sort_keys=True)
