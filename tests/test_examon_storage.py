"""Tests for the time-series DB, REST facade and dashboards."""

import bisect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.examon.broker import MQTTBroker
from repro.examon.dashboard import Dashboard, Heatmap
from repro.examon.rest import ExamonRestAPI
from repro.examon.topics import TopicSchema
from repro.examon.tsdb import TimeSeriesDB


class TestTSDB:
    def test_insert_and_query_range(self):
        db = TimeSeriesDB()
        for t in range(10):
            db.insert("m", float(t), float(t * 10))
        points = db.query("m", 3.0, 6.0)
        assert [t for t, _v in points] == [3.0, 4.0, 5.0, 6.0]

    def test_out_of_order_insert_keeps_sorted(self):
        db = TimeSeriesDB()
        db.insert("m", 5.0, 1.0)
        db.insert("m", 2.0, 2.0)
        db.insert("m", 8.0, 3.0)
        assert [t for t, _v in db.query("m")] == [2.0, 5.0, 8.0]

    def test_latest(self):
        db = TimeSeriesDB()
        assert db.latest("missing") is None
        db.insert("m", 1.0, 10.0)
        db.insert("m", 2.0, 20.0)
        assert db.latest("m") == (2.0, 20.0)

    def test_ingest_from_broker(self):
        broker = MQTTBroker()
        db = TimeSeriesDB()
        db.attach(broker, "#")
        broker.publish("sensor/t", "42.5;100.0")
        assert db.query("sensor/t") == [(100.0, 42.5)]

    def test_malformed_payload_counted_not_stored(self):
        broker = MQTTBroker()
        db = TimeSeriesDB()
        db.attach(broker, "#")
        broker.publish("sensor/t", "garbage")
        assert db.decode_errors == 1
        assert db.points_stored == 0

    def test_aggregate_mean(self):
        db = TimeSeriesDB()
        for t in range(20):
            db.insert("m", float(t), float(t))
        buckets = db.aggregate("m", 0.0, 20.0, window_s=10.0, how="mean")
        assert buckets == [(0.0, 4.5), (10.0, 14.5)]

    def test_aggregate_unknown_how(self):
        db = TimeSeriesDB()
        with pytest.raises(KeyError):
            db.aggregate("m", 0, 1, 1, how="p99")

    def test_rate_differentiates_counter(self):
        db = TimeSeriesDB()
        for t in range(5):
            db.insert("counter", float(t), float(t * 100))
        rates = db.rate("counter")
        assert all(rate == pytest.approx(100.0) for _t, rate in rates)

    def test_rate_handles_counter_reset(self):
        db = TimeSeriesDB()
        db.insert("counter", 0.0, 1000.0)
        db.insert("counter", 1.0, 50.0)    # node rebooted
        rates = db.rate("counter")
        assert rates == [(1.0, 0.0)]

    def test_topics_pattern_filter(self):
        db = TimeSeriesDB()
        db.insert("a/x", 0.0, 1.0)
        db.insert("b/y", 0.0, 1.0)
        assert db.topics("a/#") == ["a/x"]


def _naive_aggregate(points, start_s, end_s, window_s, how):
    """Reference implementation: per-bucket rescan of the full point list."""
    aggregators = {"mean": lambda v: sum(v) / len(v), "max": max,
                   "min": min, "sum": sum, "last": lambda v: v[-1]}
    points = [(t, v) for t, v in points if start_s <= t <= end_s]
    out = []
    bucket_start = start_s
    while bucket_start < end_s:
        bucket_end = bucket_start + window_s
        vals = [v for t, v in points if bucket_start <= t < bucket_end]
        if vals:
            out.append((bucket_start, aggregators[how](vals)))
        bucket_start = bucket_end
    return out


class _CountingList(list):
    """A list that counts element accesses (for the single-pass assertion)."""

    def __init__(self, items):
        super().__init__(items)
        self.accesses = 0

    def __getitem__(self, index):
        self.accesses += 1
        return super().__getitem__(index)


class TestAggregateRewrite:
    """Pins the single-pass ``aggregate`` rewrite.

    The old implementation rescanned the whole point list for every
    bucket (O(points × buckets)) and carried a vestigial counter whose
    ``i <= len(points)`` guard truncated aggregations with more leading
    empty buckets than stored points.  These tests assert (a) the output
    is unchanged against a naive reference, (b) the truncation bug is
    gone, and (c) the scan really is a single pass.
    """

    def _fig5_like_db(self):
        # The Fig. 5 shape: 2 Hz PMU samples with slight jitter, values
        # from a deterministic recurrence (no RNG, byte-stable).
        db = TimeSeriesDB()
        value = 7.0
        for i in range(400):
            value = (value * 1103.515245 + 12345.0) % 1000.0
            db.insert("pmu/instr", i * 0.5 + (i % 3) * 0.01, value)
        return db

    @pytest.mark.parametrize("how", ["mean", "max", "min", "sum", "last"])
    def test_matches_naive_reference(self, how):
        db = self._fig5_like_db()
        points = db.query("pmu/instr")
        for start, end, window in [(0.0, 200.0, 10.0), (3.7, 150.0, 7.3),
                                   (-5.0, 250.0, 20.0), (17.0, 18.0, 0.25)]:
            assert db.aggregate("pmu/instr", start, end, window, how) == \
                _naive_aggregate(points, start, end, window, how)

    def test_leading_empty_buckets_do_not_truncate(self):
        # Regression: 2 points after 100 empty buckets.  The old
        # ``i <= len(points)`` guard stopped the scan after bucket 2 and
        # silently returned nothing.
        db = TimeSeriesDB()
        db.insert("m", 100.5, 1.0)
        db.insert("m", 101.5, 2.0)
        assert db.aggregate("m", 0.0, 102.0, 1.0) == [(100.0, 1.0),
                                                      (101.0, 2.0)]

    def test_point_exactly_at_end_on_bucket_boundary_is_dropped(self):
        db = TimeSeriesDB()
        db.insert("m", 10.0, 99.0)
        # end_s = 10.0 is a bucket boundary: no bucket starts before
        # end_s covers t=10.0, so the point is out of range.
        assert db.aggregate("m", 0.0, 10.0, 5.0) == []

    def test_point_at_end_inside_last_partial_bucket_is_kept(self):
        db = TimeSeriesDB()
        db.insert("m", 10.0, 99.0)
        # end_s = 10.0 falls inside the bucket starting at 9.0, which
        # covers [9.0, 12.0): the point is in range and aggregated.
        assert db.aggregate("m", 0.0, 10.0, 3.0) == [(9.0, 99.0)]

    def test_empty_leading_and_trailing_buckets_omitted(self):
        db = TimeSeriesDB()
        db.insert("m", 5.0, 1.0)
        db.insert("m", 5.5, 3.0)
        buckets = db.aggregate("m", 0.0, 20.0, 1.0, how="mean")
        assert buckets == [(5.0, 2.0)]

    def test_non_positive_window_rejected(self):
        db = TimeSeriesDB()
        with pytest.raises(ValueError):
            db.aggregate("m", 0.0, 10.0, 0.0)

    def test_single_pass_over_points(self):
        # 10k points, 1k buckets: the scan must touch each point O(1)
        # times.  The pre-rewrite implementation performed ~10M accesses
        # here (one full rescan per bucket).
        db = TimeSeriesDB()
        for i in range(10_000):
            db.insert("m", i * 0.1, float(i))
        counting = _CountingList(db.query("m"))
        db.query = lambda *_a, **_k: counting
        buckets = db.aggregate("m", 0.0, 1000.0, 1.0, how="sum")
        assert len(buckets) == 1000
        assert counting.accesses <= 10_000 + 1000 + 10


class TestInsertOrderingConsistency:
    def test_out_of_order_insert_keeps_latest_and_query_consistent(self):
        db = TimeSeriesDB()
        db.insert("m", 10.0, 1.0)
        db.insert("m", 4.0, 2.0)   # late arrival
        db.insert("m", 7.0, 3.0)   # late arrival
        assert db.latest("m") == (10.0, 1.0)
        assert db.query("m") == [(4.0, 2.0), (7.0, 3.0), (10.0, 1.0)]
        assert db.query("m")[-1] == db.latest("m")

    def test_out_of_order_insert_feeds_aggregate_correctly(self):
        db = TimeSeriesDB()
        for t in (9.0, 1.0, 5.0, 3.0, 7.0):
            db.insert("m", t, t)
        assert db.aggregate("m", 0.0, 10.0, 5.0, how="sum") == \
            [(0.0, 4.0), (5.0, 21.0)]

    def test_rate_over_repeated_counter_resets(self):
        db = TimeSeriesDB()
        # Two reboots: each reset yields a zero-rate point, never a
        # negative spike; normal segments differentiate cleanly.
        for t, v in [(0.0, 100.0), (1.0, 200.0), (2.0, 10.0),
                     (3.0, 110.0), (4.0, 5.0), (5.0, 105.0)]:
            db.insert("counter", t, v)
        assert db.rate("counter") == [(1.0, 100.0), (2.0, 0.0),
                                      (3.0, 100.0), (4.0, 0.0),
                                      (5.0, 100.0)]


# -- frozen per-point read path ---------------------------------------------
# Verbatim copies of the tuple loops that ``TimeSeriesDB.rate`` and the
# dashboard's bucketing ran before they were rebuilt over the store's
# columns.  The columnar code must reproduce them bit for bit (compared by
# ``repr``, so ``-0.0`` and one-ulp differences count) on every input.

def _reference_rate(points):
    """First-difference rate over a sorted point list (the old loop)."""
    out = []
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        dt = t1 - t0
        if dt <= 0:
            continue
        out.append((t1, max(v1 - v0, 0.0) / dt))
    return out


def _reference_bucketise(points, start_s, window_s, n_buckets):
    """Per-bucket means of ``(t, v)`` points (the old per-point scan)."""
    buckets = [[] for _ in range(n_buckets)]
    for t, v in points:
        index = int((t - start_s) / window_s)
        if 0 <= index < n_buckets:
            buckets[index].append(v)
    return [sum(b) / len(b) if b else None for b in buckets]


def _reference_sum_of_rates(db, topics, start_s, end_s, window_s,
                            n_buckets):
    """Per-bucket sum of the topics' bucketed rates, in topic order."""
    total = [0.0] * n_buckets
    seen = [False] * n_buckets
    for topic in topics:
        bucketed = _reference_bucketise(
            _reference_rate(db.query(topic, start_s, end_s)), start_s,
            window_s, n_buckets)
        for i, value in enumerate(bucketed):
            if value is not None:
                total[i] += value
                seen[i] = True
    return [total[i] if seen[i] else None for i in range(n_buckets)]


#: Few distinct timestamps and values, so duplicates and ties are common.
_INSERTS = st.lists(
    st.tuples(st.sampled_from(["a", "b"]),
              st.integers(0, 12).map(lambda i: i * 0.5),
              st.sampled_from([-1.5, 0.0, 1.0, 2.5, 1e6])),
    max_size=60)


class TestColumnOrderProperty:
    """The column store is exactly a ``bisect.insort``-kept list of pairs."""

    @given(inserts=_INSERTS,
           window=st.tuples(st.integers(-2, 14), st.integers(0, 16),
                            st.sampled_from([0.5, 1.0, 2.5])),
           how=st.sampled_from(["mean", "max", "min", "sum", "last"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_insort_reference(self, inserts, window, how):
        db = TimeSeriesDB()
        reference = {}
        for topic, t, v in inserts:
            db.insert(topic, t, v)
            bisect.insort(reference.setdefault(topic, []), (t, v))
        start_s, end_s = window[0] * 0.5, (window[0] + window[1]) * 0.5
        window_s = window[2]
        for topic in ("a", "b"):
            points = reference.get(topic, [])
            assert db.query(topic) == points
            assert db.query(topic, start_s, end_s) == [
                (t, v) for t, v in points if start_s <= t <= end_s]
            assert db.latest(topic) == (points[-1] if points else None)
            assert db.aggregate(topic, start_s, end_s, window_s, how) == \
                _naive_aggregate(points, start_s, end_s, window_s, how)
            assert db.rate(topic) == _reference_rate(points)
            assert db.rate(topic, start_s, end_s) == _reference_rate(
                [(t, v) for t, v in points if start_s <= t <= end_s])
        assert db.points_stored == len(inserts)

    def test_tied_timestamp_sorts_by_value(self):
        db = TimeSeriesDB()
        for value in (2.0, 1.0, 2.0, 3.0, 0.5):
            db.insert("m", 5.0, value)
        db.insert("m", 4.0, 9.0)
        assert db.query("m") == [(4.0, 9.0), (5.0, 0.5), (5.0, 1.0),
                                 (5.0, 2.0), (5.0, 2.0), (5.0, 3.0)]
        assert db.latest("m") == (5.0, 3.0)

    @pytest.mark.parametrize("point", [(1.0, "hot"), ("t", 1.0),
                                       (None, 1.0), (3.0, None)])
    def test_non_numeric_insert_changes_nothing(self, point):
        db = TimeSeriesDB()
        with pytest.raises(TypeError):
            db.insert("new", *point)
        db.insert("m", 2.0, 1.0)
        with pytest.raises(TypeError):
            db.insert("m", *point)
        assert db.topics() == ["m"]
        assert db.query("m") == [(2.0, 1.0)]
        assert db.points_stored == 1

    def test_unknown_topic(self):
        db = TimeSeriesDB()
        db.insert("known", 1.0, 1.0)
        assert db.query("unknown") == []
        assert db.query("unknown", 0.0, 10.0) == []
        assert db.latest("unknown") is None
        assert db.aggregate("unknown", 0.0, 10.0, 1.0) == []
        assert db.rate("unknown") == []


#: Sorted series with equal timestamps (a quarter-second grid), arbitrary
#: ones, both zeros, counter resets (values fall as often as they rise)
#: and magnitudes whose sums depend on the summation rule.
_TIMES = st.one_of(st.integers(-8, 48).map(lambda i: i * 0.25),
                   st.floats(-3.0, 13.0, allow_nan=False))
_VALUES = st.sampled_from([0.0, -0.0, 1.0, 0.1, 2.5, -3.0, 7.0, 1e16, -1e16])
_SERIES = st.lists(st.tuples(_TIMES, _VALUES), max_size=24).map(sorted)
#: ``(start, span, window)``: windows that need not divide the span, and
#: ranges that leave points on both sides outside.
_RANGES = st.tuples(st.integers(-4, 20).map(lambda i: i * 0.25),
                    st.sampled_from([0.5, 1.0, 2.3, 4.0, 7.7]),
                    st.sampled_from([0.3, 0.5, 1.0, 2.5, 10.0]))


def _db_of(series_by_topic):
    db = TimeSeriesDB()
    for topic, series in series_by_topic.items():
        for t, v in series:
            db.insert(topic, t, v)
    return db


class TestColumnarReadPath:
    """``rate``, ``rate_columns`` and the heatmaps equal the frozen loops."""

    @given(series=_SERIES, ranges=_RANGES)
    @example(series=[(0.0, 0.0), (1.0, -0.0), (2.0, -3.0), (2.0, 5.0),
                     (3.0, 5.0)], ranges=(0.0, 4.0, 1.0))
    @example(series=[], ranges=(0.0, 1.0, 0.3))
    @example(series=[(0.5, 1.0)], ranges=(0.0, 1.0, 0.3))
    @settings(max_examples=200, deadline=None)
    def test_rate_matches_frozen_loop(self, series, ranges):
        db = _db_of({"c": series})
        start_s, span_s, _window_s = ranges
        for lo, hi in ((float("-inf"), float("inf")),
                       (start_s, start_s + span_s)):
            expected = _reference_rate(db.query("c", lo, hi))
            assert repr(db.rate("c", lo, hi)) == repr(expected)
            times, rates = db.rate_columns("c", lo, hi)
            assert repr((list(times), rates)) == repr(
                ([t for t, _r in expected], [r for _t, r in expected]))

    @given(series=_SERIES, ranges=_RANGES)
    @example(series=[(-0.2, 5.0), (0.0, 1e16), (0.1, 1.0), (0.2, -1e16)],
             ranges=(0.0, 1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_bucket_means_match_frozen_scan(self, series, ranges):
        # The whole series, so points before the range exercise int()'s
        # truncation toward zero and points past it the upper bound.
        # The example's bucket sums differently under a running float
        # accumulator than under Python 3.12's compensated builtin sum().
        db = _db_of({"c": series})
        start_s, span_s, window_s = ranges
        n_buckets = len(Dashboard._bucket_times(start_s, start_s + span_s,
                                                window_s))
        times, values = db.columns("c")
        assert repr(Dashboard._bucket_means(
            times, values, start_s, window_s, n_buckets)) == repr(
            _reference_bucketise(db.query("c"), start_s, window_s, n_buckets))

    @given(series=st.lists(_SERIES, min_size=12, max_size=12),
           ranges=_RANGES)
    @example(series=[[(0.0, 0.0), (1.0, 1e16)], [(0.0, 0.0), (1.0, 1.0)],
                     [(0.0, 0.0), (1.0, 1.0)]] + [[]] * 9,
             ranges=(0.0, 4.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_heatmap_rows_match_frozen_loops(self, series, ranges):
        schema = TopicSchema()
        hosts = ["mc-node-1", "mc-node-2"]
        # Three cores, so the order the per-core means are added in shows
        # (the example sums to 1e16 in topic order, not in reverse).
        pmu = {host: [schema.pmu_topic(host, core, "instructions")
                      for core in range(3)] for host in hosts}
        net = {host: [schema.stats_topic(host, f"net_total.{direction}")
                      for direction in ("recv", "send")] for host in hosts}
        memory = {host: schema.stats_topic(host, "memory_usage.used")
                  for host in hosts}
        topics = [topic for host in hosts
                  for topic in (*pmu[host], *net[host], memory[host])]
        db = _db_of(dict(zip(topics, series)))
        dashboard = Dashboard(db, hosts, schema=schema, n_cores=3)
        start_s, span_s, window_s = ranges
        end_s = start_s + span_s
        n = len(Dashboard._bucket_times(start_s, end_s, window_s))
        expected = {
            "instructions_heatmap": {host: _reference_sum_of_rates(
                db, pmu[host], start_s, end_s, window_s, n) for host in hosts},
            "network_heatmap": {host: _reference_sum_of_rates(
                db, net[host], start_s, end_s, window_s, n) for host in hosts},
            "memory_heatmap": {host: _reference_bucketise(
                db.query(memory[host], start_s, end_s), start_s, window_s, n)
                for host in hosts},
        }
        for view, rows in expected.items():
            heatmap = getattr(dashboard, view)(start_s, end_s, window_s)
            assert repr(heatmap.rows) == repr(rows), view


class TestRestAPI:
    def _api(self):
        db = TimeSeriesDB()
        for t in range(10):
            db.insert("node/metric", float(t), float(t))
        return ExamonRestAPI(db)

    def test_query_endpoint(self):
        api = self._api()
        result = api.get("/api/query", {"topic": "node/metric",
                                        "start": 0.0, "end": 2.0})
        assert result == [{"t": 0.0, "v": 0.0}, {"t": 1.0, "v": 1.0},
                          {"t": 2.0, "v": 2.0}]

    def test_latest_endpoint(self):
        api = self._api()
        assert api.get("/api/latest", {"topic": "node/metric"}) == \
            {"t": 9.0, "v": 9.0}

    def test_topics_endpoint(self):
        assert self._api().get("/api/topics") == ["node/metric"]

    def test_unknown_endpoint_404(self):
        with pytest.raises(KeyError, match="404"):
            self._api().get("/api/nope")

    def test_request_counter(self):
        api = self._api()
        api.get("/api/topics")
        api.get("/api/topics")
        assert api.requests_served == 2


class TestDashboard:
    def _db_with_counters(self):
        db = TimeSeriesDB()
        schema = TopicSchema()
        for host in ("mc-node-1", "mc-node-2"):
            rate = 100.0 if host == "mc-node-1" else 50.0
            for core in range(4):
                topic = schema.pmu_topic(host, core, "instructions")
                for t in range(0, 100, 5):
                    db.insert(topic, float(t), rate * t)
        return db, schema

    def test_instructions_heatmap_sums_cores(self):
        db, schema = self._db_with_counters()
        dashboard = Dashboard(db, ["mc-node-1", "mc-node-2"], schema=schema)
        heatmap = dashboard.instructions_heatmap(0.0, 100.0, window_s=20.0)
        # Node 1: 4 cores × 100 instr/s = 400/s.
        assert heatmap.node_mean("mc-node-1") == pytest.approx(400.0)
        assert heatmap.node_mean("mc-node-2") == pytest.approx(200.0)

    def test_heatmap_missing_node_is_none_row(self):
        db, schema = self._db_with_counters()
        dashboard = Dashboard(db, ["mc-node-1", "mc-node-9"], schema=schema)
        heatmap = dashboard.instructions_heatmap(0.0, 100.0, window_s=20.0)
        assert all(v is None for v in heatmap.rows["mc-node-9"])
        with pytest.raises(ValueError):
            heatmap.node_mean("mc-node-9")

    def test_render_ascii_has_one_row_per_node(self):
        db, schema = self._db_with_counters()
        dashboard = Dashboard(db, ["mc-node-1", "mc-node-2"], schema=schema)
        text = dashboard.instructions_heatmap(0.0, 100.0, 20.0).render_ascii()
        assert text.count("mc-node-") == 2

    def test_empty_time_range_rejected(self):
        db, schema = self._db_with_counters()
        dashboard = Dashboard(db, ["mc-node-1"], schema=schema)
        with pytest.raises(ValueError):
            dashboard.instructions_heatmap(10.0, 10.0, 1.0)

    def test_thermal_timeline_reads_stats_topics(self):
        db = TimeSeriesDB()
        schema = TopicSchema()
        topic = schema.stats_topic("mc-node-7", "temperature.cpu_temp")
        for t in range(5):
            db.insert(topic, float(t), 100.0 + t)
        dashboard = Dashboard(db, ["mc-node-7"], schema=schema)
        peaks = dashboard.peak_temperatures(0.0, 10.0)
        assert peaks["mc-node-7"] == pytest.approx(104.0)
