"""The batch-analysis REST-style API over the time-series store.

§IV-B: "The data can also be analyzed in batch mode using scripts and
accessing the database through the dedicated RESTful API over HTTP."
This facade mirrors that interface shape: string endpoints with query
dictionaries returning JSON-able structures, so the analysis scripts in
``examples/`` read like clients of the real service.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.examon.tsdb import TimeSeriesDB

__all__ = ["ExamonRestAPI"]


class ExamonRestAPI:
    """GET-style query endpoints."""

    def __init__(self, db: TimeSeriesDB) -> None:
        self.db = db
        self.requests_served = 0
        self._handlers = {
            "/api/topics": self._topics,
            "/api/query": self._query,
            "/api/aggregate": self._aggregate,
            "/api/rate": self._rate,
            "/api/latest": self._latest,
        }

    def get(self, endpoint: str, params: Optional[Dict[str, Any]] = None) -> Any:
        """Dispatch a request path to its handler.

        Supported endpoints: ``/api/topics``, ``/api/query``,
        ``/api/aggregate``, ``/api/rate``, ``/api/latest``.
        """
        handler = self._handlers.get(endpoint)
        if handler is None:
            raise KeyError(f"404: no endpoint {endpoint!r}")
        self.requests_served += 1
        return handler(params or {})

    # -- handlers -----------------------------------------------------------
    def _topics(self, params: Dict[str, Any]) -> List[str]:
        return self.db.topics(params.get("pattern", "#"))

    def _query(self, params: Dict[str, Any]) -> List[Dict[str, float]]:
        points = self.db.query(params["topic"],
                               params.get("start", float("-inf")),
                               params.get("end", float("inf")))
        return [{"t": t, "v": v} for t, v in points]

    def _aggregate(self, params: Dict[str, Any]) -> List[Dict[str, float]]:
        points = self.db.aggregate(params["topic"], params["start"],
                                   params["end"], params["window"],
                                   params.get("how", "mean"))
        return [{"t": t, "v": v} for t, v in points]

    def _rate(self, params: Dict[str, Any]) -> List[Dict[str, float]]:
        points = self.db.rate(params["topic"],
                              params.get("start", float("-inf")),
                              params.get("end", float("inf")))
        return [{"t": t, "v": v} for t, v in points]

    def _latest(self, params: Dict[str, Any]) -> Optional[Dict[str, float]]:
        point = self.db.latest(params["topic"])
        return None if point is None else {"t": point[0], "v": point[1]}
