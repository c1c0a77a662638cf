"""Discrete-event simulation kernel.

This package provides the simulation substrate every other subsystem of the
Monte Cimone reproduction is built on: a deterministic event loop
(:class:`~repro.events.engine.Engine`) and generator-based cooperating
processes (:class:`~repro.events.process.Process`).

The kernel is intentionally small and fully deterministic: events scheduled
for the same timestamp are dispatched in insertion order, which makes every
simulation in the test-suite and benchmark harness exactly reproducible.

Example
-------
>>> from repro.events.engine import Engine
>>> eng = Engine()
>>> log = []
>>> def worker(env):
...     yield env.timeout(1.5)
...     log.append(env.now)
>>> eng.spawn(worker(eng))
Process(...)
>>> eng.run(until=10.0)
>>> log
[1.5]
"""
