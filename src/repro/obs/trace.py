"""Span tracing for the simulation substrate.

A :class:`Span` is one named interval of *simulated* time — a process
lifetime, a boot region, a SLURM job attempt, an MPI collective — with a
parent link, so a run unfolds into a tree ("which job attempt, on which
node, spent its time in which phase").  The design follows the Dapper
lineage of span trees, with one deliberate difference: timestamps come
from the engine's simulated clock, never the host's, so a trace is as
deterministic as the run it observed and two runs of the same experiment
produce byte-identical traces.

The tracer attaches to an :class:`~repro.events.engine.Engine` as its
``tracer`` attribute (see :func:`repro.obs.instrument.attach_tracer`).
The kernel guards every hook behind a single ``is not None`` check, so a
simulation without a tracer pays one attribute test per operation and
nothing else — tracing is strictly opt-in.

Hook protocol (called by the kernel, cheap by construction):

* ``on_event_scheduled(queue_depth)`` / ``on_event_processed()`` —
  engine heap accounting;
* ``on_failure_ledgered()`` / ``on_failure_defused()`` — failure-ledger
  accounting;
* ``on_process_spawn(process)`` — opens the process span;
* ``on_process_resume(process)`` / ``on_process_suspend(process,
  finished)`` — maintain the current-span context across generator
  resumes, and close the process span at its final suspension.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["Span", "Tracer", "NULL_SPAN", "span_of"]


class Span:
    """One named interval of simulated time in the trace tree."""

    __slots__ = ("span_id", "name", "category", "start_s", "end_s",
                 "parent_id", "attributes", "status", "_tracer")

    def __init__(self, tracer: "Tracer", span_id: int, name: str,
                 category: str, start_s: float, parent_id: Optional[int],
                 attributes: Optional[Dict[str, Any]]) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        self.category = category
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = dict(attributes) if attributes else {}
        self.status = "ok"

    @property
    def finished(self) -> bool:
        """True once the span's end time is recorded."""
        return self.end_s is not None

    @property
    def duration_s(self) -> float:
        """Span length; an open span extends to the tracer's current time."""
        end = self.end_s if self.end_s is not None else self._tracer.now
        return end - self.start_s

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes to the span (last write wins per key)."""
        self.attributes.update(attributes)
        return self

    def end(self, status: Optional[str] = None) -> None:
        """Close the span at the current simulated time (idempotent)."""
        if self.end_s is None:
            self.end_s = self._tracer.now
            if status is not None:
                self.status = status

    # -- context manager ----------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, _tb: Any) -> None:
        self.end(status="failed" if exc_type is not None else None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = f"{self.end_s:.6f}" if self.end_s is not None else "open"
        return (f"Span#{self.span_id}({self.name!r}, {self.category}, "
                f"[{self.start_s:.6f}, {end}])")


class _NullSpan:
    """The do-nothing span returned by :meth:`Tracer.maybe_span` helpers."""

    __slots__ = ()

    def set(self, **_attributes: Any) -> "_NullSpan":
        return self

    def end(self, status: Optional[str] = None) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: Any) -> None:
        pass


#: Shared inert span: call sites can trace unconditionally through
#: ``span_of(engine, ...)`` without per-call allocations when disabled.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans and engine metrics for one simulation run.

    Parameters
    ----------
    clock:
        Anything with a ``now`` attribute in simulated seconds — in
        practice the :class:`~repro.events.engine.Engine` itself.

    The tracer owns a fresh :class:`MetricsRegistry`, ``metrics``, which
    receives the engine counters.
    """

    def __init__(self, clock: Any) -> None:
        self._clock = clock
        self.metrics = MetricsRegistry()
        self.spans: List[Span] = []
        self._next_id = 1
        self._stack: List[Span] = []
        # Engine instruments, resolved once so hooks are dict-free.
        self._events_scheduled = self.metrics.counter("engine.events_scheduled")
        self._events_processed = self.metrics.counter("engine.events_processed")
        self._heap_depth = self.metrics.gauge("engine.heap_depth")
        self._failures_ledgered = self.metrics.counter("engine.failures_ledgered")
        self._failures_defused = self.metrics.counter("engine.failures_defused")
        self._processes_spawned = self.metrics.counter("engine.processes_spawned")

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time, read from the attached clock."""
        return self._clock.now

    # -- span construction ---------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """The innermost open span of the currently-resuming process."""
        return self._stack[-1] if self._stack else None

    def begin(self, name: str, category: str = "sim",
              parent: Optional[Span] = None,
              **attributes: Any) -> Span:
        """Open a span starting now; parent defaults to the current span."""
        if parent is None:
            parent = self.current
        span = Span(self, self._next_id, name, category, self.now,
                    parent.span_id if parent is not None else None,
                    attributes or None)
        self._next_id += 1
        self.spans.append(span)
        return span

    def span(self, name: str, category: str = "sim",
             **attributes: Any) -> Span:
        """Context-manager form of :meth:`begin` (span ends on exit)."""
        return self.begin(name, category, **attributes)

    def record(self, name: str, start_s: float, end_s: float,
               category: str = "sim", parent: Optional[Span] = None,
               **attributes: Any) -> Span:
        """Add an already-completed span (e.g. a modelled collective)."""
        if end_s < start_s:
            raise ValueError(f"span {name!r} ends before it starts: "
                             f"[{start_s}, {end_s}]")
        span = self.begin(name, category, parent=parent, **attributes)
        span.start_s = start_s
        span.end_s = end_s
        return span

    # -- tree views ----------------------------------------------------------
    def by_id(self) -> Dict[int, Span]:
        """Span lookup table."""
        return {span.span_id: span for span in self.spans}

    def children_of(self, span: Optional[Span]) -> List[Span]:
        """Direct children (roots for ``None``), in start order."""
        wanted = span.span_id if span is not None else None
        return sorted((s for s in self.spans if s.parent_id == wanted),
                      key=lambda s: (s.start_s, s.span_id))

    def find(self, name_prefix: str) -> List[Span]:
        """All spans whose name starts with ``name_prefix``."""
        return [s for s in self.spans if s.name.startswith(name_prefix)]

    def walk(self) -> Iterator[tuple[int, Span]]:
        """Depth-first (depth, span) traversal of the whole forest."""
        def visit(span: Span, depth: int) -> Iterator[tuple[int, Span]]:
            yield depth, span
            for child in self.children_of(span):
                yield from visit(child, depth + 1)
        for root in self.children_of(None):
            yield from visit(root, 0)

    # -- kernel hooks --------------------------------------------------------
    def on_event_scheduled(self, queue_depth: int) -> None:
        self._events_scheduled.inc()
        self._heap_depth.set(queue_depth)

    def on_event_processed(self) -> None:
        self._events_processed.inc()

    def on_failure_ledgered(self) -> None:
        self._failures_ledgered.inc()

    def on_failure_defused(self) -> None:
        self._failures_defused.inc()

    def on_process_spawn(self, process: Any) -> None:
        self._processes_spawned.inc()
        process.obs_span = self.begin(f"process:{process.name}",
                                      category="process")

    def on_process_resume(self, process: Any) -> None:
        if process.obs_span is None:
            # Tracer attached after this process was spawned: open its
            # span late, covering the observed remainder of its life.
            self.on_process_spawn(process)
        self._stack.append(process.obs_span)

    def on_process_suspend(self, process: Any, finished: bool) -> None:
        self._stack.pop()
        if finished:
            span = process.obs_span
            if span is not None and span.end_s is None:
                span.end("failed" if process._exception is not None else "ok")


def span_of(engine: Any, name: str, category: str = "sim",
            **attributes: Any) -> Any:
    """A span on ``engine``'s tracer, or the shared no-op when untraced.

    The instrumentation idiom for simulation code::

        with span_of(engine, "boot.R1", "boot", node=self.hostname):
            yield engine.timeout(...)

    costs one attribute check when tracing is disabled.
    """
    tracer = engine.tracer
    if tracer is None:
        return NULL_SPAN
    return tracer.begin(name, category, **attributes)
