"""Observability-overhead bench: tracing must be free when disabled.

The kernel guards every tracer hook behind one ``is not None`` check, so
a simulation that never attaches a tracer pays (essentially) nothing for
the observability layer's existence.  This bench pins that claim: the
same workload runs with tracing disabled and enabled, and the disabled
run must not be measurably slower than the enabled one — if it ever is,
a hook leaked out of its guard.
"""

import time

from repro.events.engine import Engine
from repro.obs.instrument import attach_tracer
from repro.obs.trace import span_of

#: Workload size: processes × yields each, enough to dominate fixed costs.
_N_PROCESSES = 60
_N_YIELDS = 120


def _workload(engine):
    """A representative kernel load: many processes, spans at every hop."""
    def worker(env, k):
        for _ in range(_N_YIELDS):
            with span_of(env, "hop", "bench", k=k):
                yield env.timeout(1.0)

    for k in range(_N_PROCESSES):
        engine.spawn(worker(engine, k), name=f"w{k}")
    engine.run()


def _best_of(repeats, build):
    """Min-of-repeats wall time of ``_workload`` on a fresh engine."""
    best = float("inf")
    for _ in range(repeats):
        engine = build()
        t0 = time.perf_counter()
        _workload(engine)
        best = min(best, time.perf_counter() - t0)
    return best


def test_disabled_tracing_adds_no_engine_overhead():
    def enabled():
        engine = Engine()
        attach_tracer(engine)
        return engine

    disabled_s = _best_of(5, Engine)
    enabled_s = _best_of(5, enabled)
    # Disabled must cost at most what enabled costs (modulo timer noise);
    # the factor is generous because both runs are fast and jittery, but
    # a hook escaping its ``is not None`` guard shows up as disabled
    # costing a large multiple of itself, far beyond this bound.
    assert disabled_s <= enabled_s * 1.5, (
        f"untraced engine slower than traced one: "
        f"{disabled_s * 1e3:.2f} ms vs {enabled_s * 1e3:.2f} ms")


def test_disabled_run_produces_no_observability_state():
    engine = Engine()
    _workload(engine)
    assert engine.tracer is None


def test_enabled_run_captures_every_span():
    engine = Engine()
    tracer = attach_tracer(engine)
    _workload(engine)
    assert len(tracer.find("hop")) == _N_PROCESSES * _N_YIELDS
    assert len(tracer.find("process:")) == _N_PROCESSES
    snapshot = tracer.metrics.snapshot()
    assert snapshot["engine.processes_spawned"] == _N_PROCESSES


def test_traced_engine_throughput(benchmark):
    """Absolute datapoint: events/s with the tracer attached."""
    def run():
        engine = Engine()
        attach_tracer(engine)
        _workload(engine)
        return engine

    engine = benchmark.pedantic(run, rounds=3, iterations=1)
    assert engine.now == _N_YIELDS
