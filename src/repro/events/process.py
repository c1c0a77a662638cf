"""Generator-based cooperating processes for the simulation kernel.

A :class:`Process` wraps a Python generator that yields :class:`Event`
objects.  Each time a yielded event fires, the generator is resumed with the
event's value (or the event's exception is thrown into it).  A process is
itself an event, so processes can wait on each other:

>>> from repro.events.engine import Engine
>>> eng = Engine()
>>> def child(env):
...     yield env.timeout(2)
...     return "done"
>>> def parent(env):
...     result = yield env.spawn(child(env))
...     assert result == "done"
>>> eng.spawn(parent(eng))     # doctest: +ELLIPSIS
Process(...)
>>> eng.run()
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.events.engine import Engine, Event, SimulationError

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    Its one argument, ``args[0]``, is the interrupting party's reason, e.g.
    a pre-emption notice from the scheduler or a thermal-trip shutdown from
    the enclosure model.
    """


class Process(Event):
    """A running simulation process.

    The process starts immediately: its first resumption is scheduled at the
    current simulated time (delay 0), preserving deterministic ordering with
    respect to other events scheduled in the same instant.
    """

    __slots__ = ("generator", "name", "_target", "_started", "obs_span")

    def __init__(self, engine: Engine, generator: Generator[Event, Any, Any], name: str = "") -> None:
        super().__init__(engine)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        self._started = False
        #: Trace span covering this process's lifetime (None when the
        #: engine is untraced; see repro.obs).
        self.obs_span = None
        # Kick off the process via a zero-delay bootstrap event.
        bootstrap = Event(engine)
        bootstrap._triggered = True
        engine._schedule(bootstrap)
        bootstrap.callbacks.append(self._resume)
        self._target = bootstrap
        if engine.tracer is not None:
            engine.tracer.on_process_spawn(self)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        twice before it handles the first interrupt is allowed and delivers
        both, in order.  Interrupting a just-spawned process is deferred
        until after its bootstrap resumption, so the process body gets to
        run up to its first ``yield`` before the interrupt arrives (instead
        of the interrupt being thrown into a never-started generator and
        skipping the body entirely).  An interrupt whose target finishes in
        the same simulated instant, before delivery, is dropped: there is
        no frame left to deliver it to.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        deliver = Event(self.engine)
        deliver._triggered = True
        deliver._exception = Interrupt(cause)
        self.engine._schedule(deliver)
        deliver.callbacks.append(self._deliver_interrupt)

    def _deliver_interrupt(self, event: Event) -> None:
        """Late-bound interrupt delivery (runs when the delivery event fires).

        Detaching from the currently-waited-on event happens here, at
        delivery time, not when :meth:`interrupt` was called — that is what
        makes double interrupts deliver both, in order, and keeps a pending
        interrupt from cancelling the bootstrap resumption.
        """
        if self._triggered:
            # The process finished in this same instant, before delivery;
            # the interrupt is moot.  Consume it so the ledger stays clean.
            event.defuse()
            return
        if not self._started:
            # The generator has not been bootstrapped yet; re-queue the
            # delivery so it lands after the bootstrap resumption.
            event.defuse()
            redelivery = Event(self.engine)
            redelivery._triggered = True
            redelivery._exception = event._exception
            self.engine._schedule(redelivery)
            redelivery.callbacks.append(self._deliver_interrupt)
            return
        target = self._target
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._target = None
        self._resume(event)

    # -- internal ----------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Resume the generator, maintaining the tracer's span context.

        Tracing is folded into the single resume frame: the ``finally``
        suspend hook fires on every exit path (StopIteration, crash,
        re-yield), exactly as the former inner/outer split did, but
        without an extra Python call frame per resumption when untraced
        (the dominant mode — a ``try/finally`` with no exception is
        zero-cost on CPython 3.11+).
        """
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.on_process_resume(self)
        self._started = True
        try:
            try:
                if event._exception is not None:
                    # The exception is being delivered into this generator:
                    # that consumes the failure.
                    event.defuse()
                    target = self.generator.throw(event._exception)
                else:
                    target = self.generator.send(event._value)
            except StopIteration as stop:
                self._target = None
                self.succeed(stop.value)
                return
            except Interrupt as interrupt:
                # Unhandled interrupt terminates the process as failed; the
                # failure ledger flags it unless a waiter (or defuse)
                # consumes it.
                self._target = None
                self.fail(interrupt)
                return
            except Exception as exc:
                # A crashed process becomes a failed event.  If somebody
                # waits on it, the exception propagates to them; if nobody
                # ever consumes it, Engine.run() raises an
                # UnconsumedFailureError diagnostic when the simulation
                # drains — replacing the old timing-dependent "crash only
                # if no callbacks yet" heuristic.
                self._target = None
                self.fail(exc)
                return
            except BaseException:
                # KeyboardInterrupt/SystemExit and friends are not
                # simulation outcomes; propagate immediately out of
                # engine.step().
                self._target = None
                raise

            if not isinstance(target, Event):
                self._target = None
                self.fail(SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"))
                return
            self._target = target
            if target.processed:
                # The event already fired; resume immediately (zero delay).
                if target._exception is not None:
                    # Waiting on a processed failed event consumes its
                    # failure.
                    target.defuse()
                immediate = Event(self.engine)
                immediate._triggered = True
                immediate._value = target._value
                immediate._exception = target._exception
                self.engine._schedule(immediate)
                immediate.callbacks.append(self._resume)
                self._target = immediate
            else:
                target.callbacks.append(self._resume)
        finally:
            if tracer is not None:
                tracer.on_process_suspend(self, finished=self._triggered)

    def __repr__(self) -> str:
        state = "finished" if self._triggered else "alive"
        return f"Process({self.name!r}, {state})"
