"""Wiring the observability layer onto a running simulation.

The kernel hooks (engine/process) activate the moment an engine gains a
tracer; everything else — broker transport counters, scheduler queue
metrics, MPI collective accounting — attaches here through read-through
gauges and listener callbacks, so the observed subsystems carry no
observability dependency of their own.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["attach_tracer", "detach_tracer", "register_engine_metrics",
           "register_broker_metrics", "register_scheduler_metrics",
           "register_mpi_metrics", "register_tsdb_metrics"]


def attach_tracer(engine: Any, metrics: Optional[MetricsRegistry] = None) -> Tracer:
    """Create a :class:`Tracer` and install it as ``engine.tracer``.

    From this point on, every spawned process opens a span and the engine
    counters tick; processes already alive get their spans opened lazily
    at their next resumption.
    """
    tracer = Tracer(engine, metrics)
    engine.tracer = tracer
    return tracer


def detach_tracer(engine: Any) -> None:
    """Remove the engine's tracer; the kernel reverts to zero-cost mode."""
    engine.tracer = None


def register_engine_metrics(registry: MetricsRegistry, engine: Any,
                            prefix: str = "engine") -> None:
    """Expose the engine's queue depth as a read-through gauge.

    ``{prefix}.queue_depth`` reads :attr:`Engine.queue_depth` (events
    scheduled but not yet dispatched) each time the registry is read.
    """
    registry.gauge_callback(f"{prefix}.queue_depth",
                            lambda: engine.queue_depth)


def register_broker_metrics(registry: MetricsRegistry, broker: Any,
                            prefix: str = "broker") -> None:
    """Expose an :class:`~repro.examon.broker.MQTTBroker`'s transport load.

    ``broker.match_ops`` counts subscription-index nodes visited while
    matching — the deterministic stand-in for "time spent matching"
    (wall-clock reads are banned in simulation code by simlint DET101).
    """
    registry.gauge_callback(f"{prefix}.messages_published",
                            lambda: broker.messages_published)
    registry.gauge_callback(f"{prefix}.messages_delivered",
                            lambda: broker.messages_delivered)
    registry.gauge_callback(f"{prefix}.bytes_published",
                            lambda: broker.bytes_published)
    registry.gauge_callback(f"{prefix}.match_ops", lambda: broker.match_ops)
    registry.gauge_callback(f"{prefix}.match_cache_hits",
                            lambda: broker.match_cache_hits)
    registry.gauge_callback(f"{prefix}.subscriptions",
                            lambda: broker.subscription_count)
    registry.gauge_callback(f"{prefix}.retained_topics",
                            lambda: len(broker.retained_topics()))


def register_tsdb_metrics(registry: MetricsRegistry, tsdb: Any,
                          prefix: str = "tsdb") -> None:
    """Expose a :class:`~repro.examon.tsdb.TimeSeriesDB`'s ingest load.

    ``fast_appends`` vs ``sorted_inserts`` splits the insert traffic into
    the monotone append-only fast path and the out-of-order ``bisect``
    slow path (outage backfills) — the ratio is the health indicator for
    the storage hot path.
    """
    registry.gauge_callback(f"{prefix}.points_stored",
                            lambda: tsdb.points_stored)
    registry.gauge_callback(f"{prefix}.fast_appends",
                            lambda: tsdb.fast_appends)
    registry.gauge_callback(f"{prefix}.sorted_inserts",
                            lambda: tsdb.sorted_inserts)
    registry.gauge_callback(f"{prefix}.decode_errors",
                            lambda: tsdb.decode_errors)


def register_scheduler_metrics(registry: MetricsRegistry, controller: Any,
                               prefix: str = "slurm") -> None:
    """Expose a :class:`~repro.slurm.scheduler.SlurmController`'s load.

    Queue depth is a read-through gauge; requeues and completions are
    counted through the controller's listener lists, so the counters see
    exactly the transitions accounting sees.
    """
    registry.gauge_callback(f"{prefix}.queue_depth",
                            lambda: controller.queue_depth)
    registry.gauge_callback(f"{prefix}.jobs_known",
                            lambda: len(controller.jobs))
    requeues = registry.counter(f"{prefix}.requeues")
    finished = registry.counter(f"{prefix}.jobs_finished")
    controller.on_job_requeue.append(lambda _job: requeues.inc())
    controller.on_job_end.append(lambda _job: finished.inc())


def register_mpi_metrics(registry: MetricsRegistry, model: Any,
                         tracer: Optional[Tracer] = None,
                         prefix: str = "mpi") -> None:
    """Count (and optionally trace) an :class:`MPICostModel`'s collectives.

    Installs the model's ``observer`` hook.  With a tracer, every
    modelled collective is also recorded as a completed span starting at
    the current simulated time and spanning its modelled cost — analytic
    models (the HPL predictor) thereby show up on the same timeline as
    the engine-driven processes that invoked them.
    """
    collectives = registry.counter(f"{prefix}.collectives")
    bytes_moved = registry.counter(f"{prefix}.bytes")
    time_gauge = registry.gauge(f"{prefix}.modelled_time_s")
    total = {"s": 0.0}

    def observe(kind: str, n_bytes: int, n_ranks: int, cost_s: float) -> None:
        collectives.inc()
        bytes_moved.inc(int(n_bytes))
        total["s"] += cost_s
        time_gauge.set(total["s"])
        if tracer is not None:
            start = tracer.now
            tracer.record(f"mpi.{kind}", start, start + cost_s,
                          category="mpi", n_bytes=int(n_bytes),
                          n_ranks=n_ranks)

    model.observer = observe
