"""Tests for the observability layer: spans, metrics, exporters, CLI."""

import json

import pytest

from repro import __main__ as cli
from repro.events.engine import Engine, UnconsumedFailureError
from repro.obs import (NULL_SPAN, MetricsRegistry, Tracer, attach_tracer,
                       chrome_trace_json, detach_tracer,
                       register_engine_metrics, span_of,
                       span_tree_text, to_chrome_trace, validate_chrome_trace)
from repro.obs.experiments import trace_boot_power, trace_fault_recovery


class TestMetrics:
    def test_counter_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_gauge_tracks_watermark(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3.0)
        g.set(7.0)
        g.set(2.0)
        assert g.value == 2.0
        assert g.max_value == 7.0

    def test_get_or_create_shares_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(ValueError):
            reg.gauge("a")
        with pytest.raises(ValueError):
            reg.gauge_callback("a", lambda: 0.0)

    def test_callback_gauge_reads_through(self):
        reg = MetricsRegistry()
        state = {"n": 0}
        reg.gauge_callback("live", lambda: state["n"])
        state["n"] = 9
        assert reg.snapshot()["live"] == 9.0

    def test_engine_queue_depth_gauge_reads_live_queue(self):
        eng = Engine()
        reg = MetricsRegistry()
        register_engine_metrics(reg, eng)
        assert reg.snapshot() == {"engine.queue_depth": 0.0}
        eng.timeout(1.0)
        eng.timeout(2.0)
        assert reg.snapshot()["engine.queue_depth"] == 2.0
        eng.run(until=1.5)
        assert reg.snapshot()["engine.queue_depth"] == 1.0

    def test_snapshot_sorted_with_gauge_max(self):
        reg = MetricsRegistry()
        reg.counter("z").inc(2)
        reg.gauge("a").set(1.0)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a.max"] == 1.0
        assert snap["z"] == 2.0

    def test_render_lists_every_metric(self):
        reg = MetricsRegistry()
        assert reg.render() == "(no metrics)"
        reg.counter("hits").inc(3)
        assert "hits" in reg.render()


class TestSpans:
    def test_context_manager_closes_span(self):
        eng = Engine()
        tracer = attach_tracer(eng)
        with tracer.span("phase", "test", node="n1") as span:
            eng.call_at(5.0, lambda: None)
            eng.run()
        assert span.finished
        assert span.start_s == 0.0 and span.end_s == 5.0
        assert span.status == "ok"
        assert span.attributes["node"] == "n1"

    def test_exception_marks_span_failed(self):
        tracer = attach_tracer(Engine())
        with pytest.raises(RuntimeError):
            with tracer.span("doomed") as span:
                raise RuntimeError("boom")
        assert span.status == "failed"

    def test_end_is_idempotent(self):
        eng = Engine()
        tracer = attach_tracer(eng)
        span = tracer.begin("once")
        span.end()
        eng.call_at(3.0, lambda: None)
        eng.run()
        span.end(status="failed")
        assert span.end_s == 0.0 and span.status == "ok"

    def test_explicit_parent_overrides_stack(self):
        tracer = attach_tracer(Engine())
        root = tracer.begin("root")
        child = tracer.begin("child", parent=root)
        assert child.parent_id == root.span_id

    def test_record_rejects_backwards_interval(self):
        tracer = attach_tracer(Engine())
        with pytest.raises(ValueError):
            tracer.record("bad", 5.0, 4.0)

    def test_record_adds_completed_span(self):
        tracer = attach_tracer(Engine())
        span = tracer.record("mpi.bcast", 1.0, 2.5, category="mpi")
        assert span.finished and span.duration_s == 1.5

    def test_open_span_duration_clamps_to_now(self):
        eng = Engine()
        tracer = attach_tracer(eng)
        span = tracer.begin("daemon")
        eng.call_at(10.0, lambda: None)
        eng.run()
        assert not span.finished
        assert span.duration_s == 10.0


class TestKernelHooks:
    def test_process_gets_span_with_lifecycle_times(self):
        eng = Engine()
        tracer = attach_tracer(eng)

        def worker(env):
            yield env.timeout(4.0)

        proc = eng.spawn(worker(eng), name="w")
        eng.run()
        span = proc.obs_span
        assert span.name == "process:w"
        assert span.category == "process"
        assert (span.start_s, span.end_s, span.status) == (0.0, 4.0, "ok")

    def test_spans_opened_inside_process_are_parented(self):
        eng = Engine()
        tracer = attach_tracer(eng)

        def worker(env):
            with span_of(env, "inner", "test"):
                yield env.timeout(1.0)

        proc = eng.spawn(worker(eng), name="w")
        eng.run()
        (inner,) = tracer.find("inner")
        assert inner.parent_id == proc.obs_span.span_id

    def test_failing_process_span_marked_failed(self):
        eng = Engine()
        attach_tracer(eng)

        def crasher(env):
            yield env.timeout(1.0)
            raise ValueError("injected")

        proc = eng.spawn(crasher(eng), name="crash")
        with pytest.raises(UnconsumedFailureError):
            eng.run()
        assert proc.obs_span.status == "failed"
        assert proc.obs_span.finished

    def test_late_attached_tracer_opens_span_on_resume(self):
        eng = Engine()

        def worker(env):
            yield env.timeout(2.0)
            yield env.timeout(2.0)

        proc = eng.spawn(worker(eng), name="w")
        eng.run(until=1.0)
        assert proc.obs_span is None
        attach_tracer(eng)
        eng.run()
        assert proc.obs_span is not None
        assert proc.obs_span.finished

    def test_engine_counters_tick(self):
        eng = Engine()
        tracer = attach_tracer(eng)

        def worker(env):
            yield env.timeout(1.0)

        eng.spawn(worker(eng), name="w")
        eng.run()
        snap = tracer.metrics.snapshot()
        assert snap["engine.events_processed"] >= 2
        assert snap["engine.events_scheduled"] >= 2
        assert snap["engine.processes_spawned"] == 1
        assert snap["engine.heap_depth.max"] >= 1

    def test_defused_failure_counted(self):
        eng = Engine()
        tracer = attach_tracer(eng)

        def crasher(env):
            yield env.timeout(1.0)
            raise ValueError("injected")

        proc = eng.spawn(crasher(eng), name="crash")
        with pytest.raises(UnconsumedFailureError):
            eng.run()
        proc.defuse()
        snap = tracer.metrics.snapshot()
        assert snap["engine.failures_ledgered"] == 1
        assert snap["engine.failures_defused"] == 1

    def test_untraced_engine_costs_nothing_structurally(self):
        eng = Engine()

        def worker(env):
            with span_of(env, "inner"):
                yield env.timeout(1.0)

        proc = eng.spawn(worker(eng), name="w")
        eng.run()
        assert eng.tracer is None
        assert proc.obs_span is None

    def test_span_of_returns_shared_null_span_when_disabled(self):
        eng = Engine()
        assert span_of(eng, "x") is NULL_SPAN
        assert NULL_SPAN.set(a=1) is NULL_SPAN
        with NULL_SPAN:
            pass

    def test_detach_reverts_to_null(self):
        eng = Engine()
        attach_tracer(eng)
        detach_tracer(eng)
        assert span_of(eng, "x") is NULL_SPAN


class TestTreeViews:
    def _tracer_with_tree(self):
        eng = Engine()
        tracer = attach_tracer(eng)
        root = tracer.begin("root")
        tracer.begin("a", parent=root).end()
        tracer.begin("b", parent=root).end()
        root.end()
        return tracer

    def test_walk_is_depth_first(self):
        tracer = self._tracer_with_tree()
        assert [(d, s.name) for d, s in tracer.walk()] == [
            (0, "root"), (1, "a"), (1, "b")]

    def test_children_sorted_by_start_then_id(self):
        tracer = self._tracer_with_tree()
        root = tracer.find("root")[0]
        assert [s.name for s in tracer.children_of(root)] == ["a", "b"]


class TestExport:
    def _traced_run(self):
        eng = Engine()
        tracer = attach_tracer(eng)

        def worker(env):
            with span_of(env, "phase.one", "boot"):
                yield env.timeout(2.0)
            with span_of(env, "phase.two", "boot"):
                yield env.timeout(3.0)

        eng.spawn(worker(eng), name="w")
        eng.run()
        return tracer

    def test_chrome_trace_is_schema_valid(self):
        document = to_chrome_trace(self._traced_run())
        assert validate_chrome_trace(document) == []

    def test_chrome_trace_round_trips_through_json(self):
        text = chrome_trace_json(self._traced_run())
        assert validate_chrome_trace(json.loads(text)) == []

    def test_phases_land_on_their_process_track(self):
        tracer = self._traced_run()
        document = to_chrome_trace(tracer)
        process_span = tracer.find("process:w")[0]
        phases = [e for e in document["traceEvents"]
                  if e.get("ph") == "X" and e["name"].startswith("phase.")]
        assert phases and all(e["tid"] == process_span.span_id
                              for e in phases)

    def test_track_metadata_names_the_process(self):
        document = to_chrome_trace(self._traced_run())
        names = [e["args"]["name"] for e in document["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "thread_name"]
        assert "process:w" in names

    def test_timestamps_are_microseconds(self):
        document = to_chrome_trace(self._traced_run())
        phase = next(e for e in document["traceEvents"]
                     if e["name"] == "phase.two")
        assert phase["ts"] == pytest.approx(2.0e6)
        assert phase["dur"] == pytest.approx(3.0e6)

    def test_span_tree_text_shows_nesting_and_metrics(self):
        text = span_tree_text(self._traced_run())
        lines = text.splitlines()
        proc_line = next(l for l in lines if "process:w" in l)
        phase_line = next(l for l in lines if "phase.one" in l)
        indent = lambda l: len(l) - len(l.lstrip())
        assert indent(phase_line) > indent(proc_line)
        assert "engine.events_processed" in text

    def test_validator_flags_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": 3}) != []
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X"}]}) != []
        assert validate_chrome_trace(
            {"traceEvents": [{"name": "a", "ph": "X", "pid": 1, "tid": 0,
                              "ts": 1.0, "dur": -2.0}]}) != []
        backwards = {"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "tid": 0, "ts": 5.0, "dur": 0},
            {"name": "b", "ph": "X", "pid": 1, "tid": 0, "ts": 1.0, "dur": 0},
        ]}
        assert any("backwards" in p for p in validate_chrome_trace(backwards))

    def test_validator_accepts_distinct_tracks(self):
        ok = {"traceEvents": [
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 5.0, "dur": 0},
            {"name": "b", "ph": "X", "pid": 1, "tid": 2, "ts": 1.0, "dur": 0},
        ]}
        assert validate_chrome_trace(ok) == []


@pytest.fixture(scope="module")
def boot_power_tracer():
    return trace_boot_power(job_duration_s=30.0)


class TestTracedExperiments:
    def test_boot_power_covers_boot_phases(self, boot_power_tracer):
        r1 = boot_power_tracer.find("boot.R1")
        r2 = boot_power_tracer.find("boot.R2")
        assert len(r1) == 8 and len(r2) == 8
        nodes = {s.attributes["node"] for s in r1}
        assert len(nodes) == 8

    def test_boot_power_covers_slurm_attempts(self, boot_power_tracer):
        (job,) = boot_power_tracer.find("slurm.job:")
        (attempt,) = boot_power_tracer.find("slurm.attempt:")
        assert attempt.parent_id == job.span_id
        assert attempt.attributes["outcome"] == "CD"
        assert job.status == "ok"

    def test_boot_power_covers_mpi_collectives(self, boot_power_tracer):
        collectives = boot_power_tracer.find("mpi.")
        assert collectives
        assert all(s.finished for s in collectives)

    def test_boot_power_trace_is_schema_valid(self, boot_power_tracer):
        assert validate_chrome_trace(to_chrome_trace(boot_power_tracer)) == []

    def test_boot_power_trace_is_deterministic(self, boot_power_tracer):
        again = trace_boot_power(job_duration_s=30.0)
        assert chrome_trace_json(again) == chrome_trace_json(boot_power_tracer)

    def test_boot_power_metrics_snapshot(self, boot_power_tracer):
        snap = boot_power_tracer.metrics.snapshot()
        assert snap["engine.events_processed"] > 0
        assert snap["broker.messages_published"] > 0
        assert snap["broker.match_ops"] > 0
        assert snap["slurm.jobs_finished"] == 1

    def test_fault_recovery_shows_requeue(self):
        tracer = trace_fault_recovery(job_duration_s=60.0, trip_at_s=20.0)
        attempts = sorted(tracer.find("slurm.attempt:"),
                          key=lambda s: s.start_s)
        assert len(attempts) == 2
        assert attempts[0].status == "failed"
        assert attempts[1].attributes["outcome"] == "CD"
        assert tracer.metrics.snapshot()["slurm.requeues"] == 1
        assert validate_chrome_trace(to_chrome_trace(tracer)) == []


class TestCLI:
    def test_trace_subcommand_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = cli.main(["trace", "boot-power", "--format", "chrome",
                       "--output", str(out), "--check"])
        assert rc == 0
        assert validate_chrome_trace(json.loads(out.read_text())) == []
        assert "schema: OK" in capsys.readouterr().out

    def test_trace_tree_output(self, capsys):
        rc = cli.main(["trace", "boot-power", "--format", "tree"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "boot.R1" in text and "slurm.attempt:" in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["trace", "nonsense"])
