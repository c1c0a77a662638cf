"""Wiring the observability layer onto a running simulation.

The kernel hooks (engine/process) activate the moment an engine gains a
tracer (``engine.tracer = None`` switches them off again); the broker's
transport counters and the scheduler's queue metrics attach here through
read-through gauges and listener callbacks, so the observed subsystems
carry no observability dependency of their own.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["attach_tracer", "register_broker_metrics",
           "register_scheduler_metrics"]


def attach_tracer(engine: Any) -> Tracer:
    """Create a :class:`Tracer` and install it as ``engine.tracer``.

    From this point on, every spawned process opens a span and the engine
    counters tick; processes already alive get their spans opened lazily
    at their next resumption.
    """
    tracer = Tracer(engine)
    engine.tracer = tracer
    return tracer


def register_broker_metrics(registry: MetricsRegistry, broker: Any) -> None:
    """Expose an :class:`~repro.examon.broker.MQTTBroker`'s transport load.

    ``broker.match_cache_hits`` counts publishes that took their
    subscription set from the per-topic match cache; the rest of
    ``broker.messages_published`` paid one matching pass each — the
    deterministic stand-in for "time spent matching" (wall-clock reads are
    banned in simulation code by simlint DET101).
    """
    registry.gauge_callback("broker.messages_published",
                            lambda: broker.messages_published)
    registry.gauge_callback("broker.messages_delivered",
                            lambda: broker.messages_delivered)
    registry.gauge_callback("broker.bytes_published",
                            lambda: broker.bytes_published)
    registry.gauge_callback("broker.match_cache_hits",
                            lambda: broker.match_cache_hits)
    registry.gauge_callback("broker.subscriptions",
                            lambda: broker.subscription_count)
    registry.gauge_callback("broker.retained_topics",
                            lambda: len(broker.retained_topics()))


def register_scheduler_metrics(registry: MetricsRegistry,
                               controller: Any) -> None:
    """Expose a :class:`~repro.slurm.scheduler.SlurmController`'s load.

    Queue depth is a read-through gauge; requeues and completions are
    counted through the controller's listener lists, so the counters see
    exactly the transitions accounting sees.
    """
    registry.gauge_callback("slurm.queue_depth",
                            lambda: controller.queue_depth)
    registry.gauge_callback("slurm.jobs_known",
                            lambda: len(controller.jobs))
    requeues = registry.counter("slurm.requeues")
    finished = registry.counter("slurm.jobs_finished")
    controller.on_job_requeue.append(lambda _job: requeues.inc())
    controller.on_job_end.append(lambda _job: finished.inc())

