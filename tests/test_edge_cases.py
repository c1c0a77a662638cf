"""Edge-case coverage for small branches the main suites skip."""

import pytest

from repro.benchmarks.base import BenchmarkResult, RunStatistics
from repro.examon.dashboard import Heatmap
from repro.examon.topics import TopicSchema


class TestRunStatistics:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunStatistics.from_model(-1.0, 0.1)
        with pytest.raises(ValueError):
            RunStatistics.from_model(1.0, -0.1)
        with pytest.raises(ValueError):
            RunStatistics.from_model(1.0, 0.1, n_runs=0)

    def test_single_run_has_zero_std(self):
        stats = RunStatistics.from_model(10.0, 0.05, n_runs=1)
        assert stats.std == 0.0
        assert len(stats.samples) == 1

    def test_mean_tracks_central_value(self):
        stats = RunStatistics.from_model(100.0, 0.01, n_runs=10)
        assert stats.mean == pytest.approx(100.0, rel=0.02)

    def test_zero_spread_is_exact(self):
        stats = RunStatistics.from_model(42.0, 0.0)
        assert stats.mean == 42.0
        assert stats.std == 0.0

    def test_str_form(self):
        text = str(RunStatistics.from_model(1.86, 0.022))
        assert "n=10" in text and "±" in text

    def test_samples_never_negative(self):
        # Huge spread: clipping keeps samples physical.
        stats = RunStatistics.from_model(1.0, 5.0, n_runs=50)
        assert all(sample >= 0.0 for sample in stats.samples)


class TestBenchmarkResultSummary:
    def test_summary_line(self):
        result = BenchmarkResult(
            benchmark="hpl", machine="montecimone",
            throughput=RunStatistics.from_model(1.86, 0.0),
            throughput_unit="GFLOP/s",
            runtime_s=RunStatistics.from_model(24105.0, 0.0),
            efficiency=0.465)
        line = result.summary()
        assert "46.5%" in line and "GFLOP/s" in line


class TestHeatmapEdges:
    def test_flat_field_renders_mid_shade(self):
        heatmap = Heatmap(metric="m", times=[0.0, 1.0],
                          rows={"n1": [5.0, 5.0]})
        text = heatmap.render_ascii()
        assert "|" in text
        row_line = text.splitlines()[1]
        cells = row_line.split("|")[1]
        assert cells.strip() != ""  # not rendered blank

    def test_all_none_row(self):
        heatmap = Heatmap(metric="m", times=[0.0],
                          rows={"n1": [None]})
        assert "no data" in heatmap.render_ascii()


class TestTopicParseEdges:
    SCHEMA = TopicSchema()

    def test_malformed_per_core_topic(self):
        base = ("org/unibo/cluster/montecimone/node/n1/plugin/pmu_pub"
                "/chnl/data/core")
        with pytest.raises(ValueError, match="malformed"):
            self.SCHEMA.parse(base + "/0")  # core id but no metric

    def test_topic_without_metric(self):
        base = ("org/unibo/cluster/montecimone/node/n1/plugin/dstat_pub"
                "/chnl/data")
        with pytest.raises(ValueError, match="no metric"):
            self.SCHEMA.parse(base)

    def test_nested_metric_names_joined(self):
        topic = ("org/unibo/cluster/montecimone/node/n1/plugin/dstat_pub"
                 "/chnl/data/a/b/c")
        assert self.SCHEMA.parse(topic)["metric"] == "a/b/c"
