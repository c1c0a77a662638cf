"""Deterministic discrete-event simulation engine.

Determinism is a hard requirement for this project: the whole benchmark
harness asserts on simulated measurements, and a non-deterministic kernel
would make the reproduction unfalsifiable.  Events scheduled for the same
simulated timestamp fire in the order they were scheduled — every event
carries a monotonically increasing sequence number and the kernel dispatches
in exact ``(time, sequence)`` order.

The API is intentionally close to SimPy's (``env.timeout``, ``env.process``)
so the simulation code reads like standard discrete-event Python, but the
implementation is from scratch — no third-party simulation dependency is
used anywhere in the repository.

The queue is one binary heap of ``(time, seq, event)`` triples (see
docs/ARCHITECTURE.md §1, "Kernel performance").  The committed digests in
``tests/test_events_golden.py`` pin the resulting dispatch order.

Observability: an :class:`Engine` optionally carries a tracer
(:mod:`repro.obs`) in its ``tracer`` attribute.  Every kernel hook is
guarded by a single ``is not None`` test, so tracing costs nothing when
disabled.
"""

from __future__ import annotations

import functools
import itertools
import math
import traceback as _traceback
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = ["Engine", "Event", "SimulationError", "UnconsumedFailureError",
           "FailureRecord", "Timeout", "AnyOf", "AllOf"]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, running twice, ...)."""


@dataclass(frozen=True)
class FailureRecord:
    """One failed event whose exception nobody consumed or defused.

    ``process_name`` is filled in when the failed event is a
    :class:`~repro.events.process.Process` (the common case: a crashed or
    force-killed simulation actor); for plain events it is ``None`` and
    ``event_repr`` identifies the source.
    """

    event_repr: str
    process_name: Optional[str]
    time_s: float
    exception: BaseException
    traceback_text: str

    def describe(self) -> str:
        """Multi-line human-readable account of the lost failure."""
        origin = (f"process {self.process_name!r}" if self.process_name
                  else self.event_repr)
        lines = [f"{self.exception!r} from {origin} at t={self.time_s:.6f}"]
        if self.traceback_text:
            lines.extend("    " + line
                         for line in self.traceback_text.rstrip().splitlines())
        return "\n".join(lines)


class UnconsumedFailureError(SimulationError):
    """The simulation drained while failed events were still unconsumed.

    Every failed :class:`Event` must either be *consumed* (its exception
    delivered to at least one waiter — a process that yielded it, a
    condition that absorbed it, or a caller reading ``event.value``) or
    explicitly *defused* via :meth:`Event.defuse`.  Anything else is a
    fault the simulation silently lost, which would make fault-injection
    tests pass vacuously — so :meth:`Engine.run` raises this diagnostic
    when the queue drains with live failures in the ledger.
    """

    def __init__(self, records: List[FailureRecord]) -> None:
        self.records = list(records)
        details = "\n".join("  - " + record.describe().replace("\n", "\n  ")
                            for record in self.records)
        super().__init__(
            f"{len(self.records)} unconsumed failure(s) when the simulation "
            f"drained — every failed event must be waited on or explicitly "
            f"defused (Event.defuse()):\n{details}")


class _ProcessedCallbacks(list):
    """Sentinel callback list installed once an event has been processed.

    Appending a callback to an already-processed event is a silent no-op in
    a naive kernel (the callback never runs); here it raises immediately so
    the bug surfaces at the call site.  Waiting on a processed event is
    still supported through the kernel APIs: ``yield event`` inside a
    process resumes immediately, and conditions absorb processed children.

    A single shared instance serves every processed event.
    """

    __slots__ = ()

    def _reject(self, *_args: Any) -> None:
        raise SimulationError(
            "cannot add a callback to an already-processed event; it would "
            "never run. Wait on events via yield/spawn/any_of/all_of (which "
            "handle processed events), or engine.call_at for plain "
            "scheduling")

    append = extend = insert = _reject


#: The one shared rejecting list every processed event points at.
_PROCESSED_CALLBACKS = _ProcessedCallbacks()


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* once given a value (or an
    exception) and a fire time, and is *processed* after all callbacks ran.
    Processes waiting on the event are resumed through its callback list.

    Failure accounting: a *failed* event (one triggered via :meth:`fail`)
    must have its exception consumed by a waiter or be explicitly
    :meth:`defuse`\\ d; otherwise the engine's unconsumed-failure ledger
    reports it when the simulation drains (:class:`UnconsumedFailureError`).
    """

    __slots__ = ("engine", "callbacks", "_value", "_exception", "_triggered",
                 "_processed", "_defused")

    #: True when :meth:`Engine.step` may run this class's callbacks inline
    #: (i.e. :meth:`_run_callbacks` is the base implementation).  Any
    #: subclass that overrides ``_run_callbacks`` MUST set this to False,
    #: or the engine will bypass the override.
    _inline_callbacks = True

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self._defused = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once all callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event carries a value rather than an exception."""
        return self._triggered and self._exception is None

    @property
    def defused(self) -> bool:
        """True once the event's failure has been consumed or defused."""
        return self._defused

    @property
    def value(self) -> Any:
        """The event payload; raises if the event failed.

        Reading the value of a failed event delivers the exception to the
        caller, which counts as consuming the failure.
        """
        if self._exception is not None:
            self.defuse()
            raise self._exception
        return self._value

    def defuse(self) -> None:
        """Mark this event's failure as intentionally handled.

        Consumption points inside the kernel (a process resuming with the
        exception, a condition absorbing a child failure, ``value`` raising
        to a caller) call this automatically; user code calls it for
        fire-and-forget failures that are genuinely expected to go
        unobserved.  Defusing a successful event is a harmless no-op.
        """
        if (self._exception is not None and not self._defused
                and self.engine.tracer is not None):
            self.engine.tracer.on_failure_defused()
        self._defused = True
        self.engine._discard_failure(self)

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` at the current time."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.engine._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception delivered to waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._triggered = True
        self._exception = exception
        self.engine._schedule(self)
        return self

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, _PROCESSED_CALLBACKS
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.engine.now:.6f}>"


class Timeout(Event):
    """An event that fires a fixed delay after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        # Slot assignments are written out flat instead of chaining through
        # Event.__init__: timeouts are the single most-constructed object in
        # any simulation, and the extra frame is measurable at that volume.
        self.engine = engine
        self.callbacks = []
        self._exception = None
        self._processed = False
        self._defused = False
        self.delay = delay = float(delay)
        self._triggered = True
        self._value = value
        # Inlined Engine._schedule: the extra call frame shows up in
        # profiles at this volume.
        heap = engine._heap
        heappush(heap, (engine._now + delay, next(engine._counter), self))
        if engine.tracer is not None:
            engine.tracer.on_event_scheduled(len(heap))


class _Callback(Event):
    """A triggered event that invokes one stored callable when it fires.

    This is what :meth:`Engine.call_at` schedules.  The callable is stored
    in a slot and invoked directly, before any conventionally appended
    callbacks, so no closure is allocated per call.
    """

    __slots__ = ("_fn",)

    _inline_callbacks = False  # overrides _run_callbacks below

    def __init__(self, engine: "Engine", delay: float,
                 fn: Callable[[], None]) -> None:
        super().__init__(engine)
        self._fn = fn
        self._triggered = True
        engine._schedule(self, delay)

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, _PROCESSED_CALLBACKS
        self._fn()
        for callback in callbacks:
            callback(self)


class _Condition(Event):
    """Base for AnyOf/AllOf composite events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, engine: "Engine", events: Iterable[Event]) -> None:
        super().__init__(engine)
        self.events = list(events)
        self._n_fired = 0
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            if event.processed:
                self._on_fire(event)
            else:
                event.callbacks.append(self._on_fire)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e.triggered and e._exception is None}

    def _on_fire(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when the first of its child events fires.

    A child that fails *after* the condition already resolved is not
    silently swallowed: its exception stays unconsumed and surfaces through
    the engine's failure ledger unless some other waiter (or an explicit
    ``defuse()``) handles it.
    """

    __slots__ = ()

    def _on_fire(self, event: Event) -> None:
        if self._triggered:
            # Late child outcome.  A late success is simply ignored; a late
            # failure must not vanish — leave it to the unconsumed-failure
            # ledger rather than defusing it here.
            return
        if event._exception is not None:
            event.defuse()  # absorbed: the condition now carries the failure
            self.fail(event._exception)
        else:
            self.succeed(self._collect())


class AllOf(_Condition):
    """Fires when every child event has fired.

    Like :class:`AnyOf`, a child failing after the condition has already
    resolved (e.g. a second failure once the first aborted the condition)
    flows into the unconsumed-failure ledger instead of vanishing.
    """

    __slots__ = ()

    def _on_fire(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            event.defuse()  # absorbed: the condition now carries the failure
            self.fail(event._exception)
            return
        self._n_fired += 1
        if self._n_fired == len(self.events):
            self.succeed(self._collect())


class Engine:
    """The simulation event loop.

    Parameters
    ----------
    start:
        Initial simulated time, in seconds.  Defaults to ``0.0``.

    Scheduled events wait in one heap of ``(time, seq, event)`` triples.
    ``seq`` comes from a monotone counter, so events due at the same
    instant fire in the order they were scheduled.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        if math.isnan(self._now):
            raise ValueError("start time must be a number, got nan")
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._running = False
        #: Failed, processed events whose exception nobody consumed yet.
        #: Insertion-ordered (dict) so diagnostics are deterministic.
        self._failures: dict[Event, FailureRecord] = {}
        #: Observability hook (duck-typed: repro.obs.trace.Tracer).  The
        #: kernel guards every hook call behind this single ``is not None``
        #: check, so an untraced simulation pays one attribute test per
        #: operation and allocates nothing.
        self.tracer: Optional[Any] = None
        # Instance-bound constructors: ``engine.timeout(...)`` and
        # ``engine.event()`` resolve to these C-level partials instead of
        # the method wrappers below, skipping one Python call frame on the
        # two hottest construction paths.  The methods remain on the class
        # as documentation.
        self.timeout = functools.partial(Timeout, self)
        self.event = functools.partial(Event, self)

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def queue_depth(self) -> int:
        """Events scheduled but not yet dispatched."""
        return len(self._heap)

    # -- failure ledger -----------------------------------------------------
    @property
    def unconsumed_failures(self) -> List[FailureRecord]:
        """Records of failed events nobody has consumed or defused (a copy)."""
        return list(self._failures.values())

    def _record_failure(self, event: Event) -> None:
        exc = event._exception
        assert exc is not None
        tb_text = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        ) if exc.__traceback__ is not None else ""
        self._failures[event] = FailureRecord(
            event_repr=repr(event),
            process_name=getattr(event, "name", None),
            time_s=self._now,
            exception=exc,
            traceback_text=tb_text,
        )
        if self.tracer is not None:
            self.tracer.on_failure_ledgered()

    def _discard_failure(self, event: Event) -> None:
        self._failures.pop(event, None)

    def check_failures(self) -> None:
        """Raise :class:`UnconsumedFailureError` if the ledger is non-empty.

        The raised records are removed from the ledger (they have been
        reported); callers that catch the diagnostic can keep running.
        """
        if self._failures:
            records = list(self._failures.values())
            self._failures.clear()
            raise UnconsumedFailureError(records)

    # -- event construction -------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event` bound to this engine."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any child fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all children fired."""
        return AllOf(self, events)

    def spawn(self, generator: Generator[Event, Any, Any], name: str = "") -> "Process":
        """Start a new cooperating process from a generator.

        The generator yields :class:`Event` objects and is resumed with the
        event's value when it fires.  See :class:`repro.events.process.Process`.
        """
        from repro.events.process import Process

        return Process(self, generator, name=name)

    # alias matching SimPy-style code
    process = spawn

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        heap = self._heap
        heappush(heap, (self._now + delay, next(self._counter), event))
        if self.tracer is not None:
            self.tracer.on_event_scheduled(len(heap))

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Run ``callback()`` at absolute simulated time ``when``.

        Returns the scheduled event (a :class:`_Callback`): waiters may
        still append conventional callbacks to it, which run after
        ``callback`` itself.
        """
        if not when >= self._now:  # also rejects NaN
            raise ValueError(f"cannot schedule at {when}: now is {self._now}")
        return _Callback(self, when - self._now, callback)

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process the single next event; raises IndexError when queue empty.

        A failed event that leaves processing with nobody having consumed
        its exception (and without being defused) enters the
        unconsumed-failure ledger; :meth:`run` raises a diagnostic if the
        simulation drains while the ledger is non-empty.
        """
        when, _, event = heappop(self._heap)
        self._now = when
        if self.tracer is not None:
            self.tracer.on_event_processed()
        if event._inline_callbacks:
            # Inlined Event._run_callbacks (the overwhelmingly common
            # shape): saves one Python call frame per processed event.
            event._processed = True
            callbacks = event.callbacks
            event.callbacks = _PROCESSED_CALLBACKS
            for callback in callbacks:
                callback(event)
        else:
            event._run_callbacks()
        if event._exception is not None and not event._defused:
            self._record_failure(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def run(self, until: Optional[float] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Absolute simulated time at which to stop.  ``None`` runs until
            the event queue drains.  When stopping on ``until`` the clock is
            advanced exactly to ``until`` even if no event fires there.

        Raises
        ------
        UnconsumedFailureError
            When the event queue fully drains while failed events remain
            unconsumed (see the class docstring).  A run cut short by
            ``until`` with events still queued does not raise — a later
            waiter may still legitimately consume the failure.
        """
        if self._running:
            raise SimulationError("engine is already running")
        self._running = True
        try:
            heap = self._heap
            step = self.step
            if until is None:
                while heap:
                    step()
            else:
                while heap and heap[0][0] <= until:
                    step()
                if self._now < until:
                    self._now = until
            if not heap:
                self.check_failures()
        finally:
            self._running = False

    def run_until_complete(self, process: "Event", limit: float = 1e12) -> Any:
        """Run until ``process`` has fired, returning its value.

        ``limit`` bounds runaway simulations; exceeding it raises
        :class:`SimulationError`.
        """
        heap = self._heap
        step = self.step
        while not process.triggered:
            if not heap:
                raise SimulationError("deadlock: event queue drained before process finished")
            if heap[0][0] > limit:
                raise SimulationError(f"simulation exceeded time limit {limit}")
            step()
        # drain the zero-delay callbacks so the process is fully processed
        while not process.processed and heap and heap[0][0] <= self._now:
            step()
        return process.value  # a failed process raises here (and is defused)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Engine t={self._now:.6f} queued={len(self._heap)}>"
