"""Observability for the simulator itself: span tracing and metrics.

The ExaMon substrate (:mod:`repro.examon`) observes the *simulated*
cluster; this package observes the *simulation* — which processes ran
when, where engine time went, what the broker hot path cost.  It is the
measurement layer every performance PR asserts against.

Layout:

* :mod:`repro.obs.trace` — spans over simulated time, the tracer, and
  the kernel hook protocol (``Engine.tracer``);
* :mod:`repro.obs.metrics` — counters/gauges and the registry;
* :mod:`repro.obs.export` — Chrome ``trace_event`` JSON (Perfetto /
  ``chrome://tracing``) and plain-text span trees;
* :mod:`repro.obs.instrument` — attaching a tracer and registering the
  broker and scheduler metrics;
* :mod:`repro.obs.experiments` — the canned traced runs behind the
  ``repro trace`` CLI subcommand.

Everything here is deterministic: spans carry simulated timestamps and
metrics count simulation work, so traces are byte-identical across runs
and machines (simlint's DET rules apply to this package like any other).
"""
