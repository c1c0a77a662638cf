"""Tests for generator-based processes: spawning, waiting, interrupts."""

import pytest

from repro.events.engine import Engine, SimulationError
from repro.events.process import Interrupt


def test_process_runs_and_returns_value():
    eng = Engine()

    def worker(env):
        yield env.timeout(2.0)
        return 42

    proc = eng.spawn(worker(eng))
    eng.run()
    assert proc.value == 42
    assert proc.triggered


def test_process_receives_timeout_value():
    eng = Engine()
    got = []

    def worker(env):
        value = yield env.timeout(1.0, value="hello")
        got.append(value)

    eng.spawn(worker(eng))
    eng.run()
    assert got == ["hello"]


def test_process_waits_on_child_process():
    eng = Engine()

    def child(env):
        yield env.timeout(3.0)
        return "done"

    def parent(env):
        result = yield env.spawn(child(env))
        assert env.now == 3.0
        return result

    proc = eng.spawn(parent(eng))
    eng.run()
    assert proc.value == "done"


def test_two_processes_interleave():
    eng = Engine()
    log = []

    def ticker(env, name, period):
        for _ in range(3):
            yield env.timeout(period)
            log.append((name, env.now))

    eng.spawn(ticker(eng, "fast", 1.0))
    eng.spawn(ticker(eng, "slow", 2.0))
    eng.run()
    # At t=2.0 the slow ticker's timeout was scheduled earlier (at t=0)
    # than the fast ticker's second one (at t=1), so it fires first —
    # the kernel's deterministic insertion-order rule.
    assert log == [("fast", 1.0), ("slow", 2.0), ("fast", 2.0),
                   ("fast", 3.0), ("slow", 4.0), ("slow", 6.0)]


def test_interrupt_delivers_cause():
    eng = Engine()
    caught = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            caught.append((env.now, interrupt.args[0]))

    proc = eng.spawn(sleeper(eng))
    eng.call_at(5.0, lambda: proc.interrupt("preempted"))
    eng.run()
    assert caught == [(5.0, "preempted")]


def test_interrupted_process_can_continue():
    eng = Engine()
    done_at = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            pass
        yield env.timeout(1.0)
        done_at.append(env.now)

    proc = eng.spawn(sleeper(eng))
    eng.call_at(5.0, lambda: proc.interrupt())
    eng.run()
    assert done_at == [6.0]


def test_interrupting_finished_process_is_error():
    eng = Engine()

    def quick(env):
        yield env.timeout(1.0)

    proc = eng.spawn(quick(eng))
    eng.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_unhandled_interrupt_fails_waiters():
    eng = Engine()

    def sleeper(env):
        yield env.timeout(100.0)

    def parent(env):
        try:
            yield proc
        except Interrupt:
            return "child interrupted"
        return "child finished"

    proc = eng.spawn(sleeper(eng))
    parent_proc = eng.spawn(parent(eng))
    eng.call_at(2.0, lambda: proc.interrupt())
    eng.run()
    assert parent_proc.value == "child interrupted"


def test_unwaited_process_exception_crashes_loudly():
    eng = Engine()

    def buggy(env):
        yield env.timeout(1.0)
        raise RuntimeError("silent no more")

    eng.spawn(buggy(eng))
    with pytest.raises(RuntimeError, match="silent no more"):
        eng.run()


def test_waited_process_exception_propagates_to_waiter():
    eng = Engine()

    def buggy(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def parent(env):
        try:
            yield proc
        except ValueError as exc:
            return f"caught {exc}"

    proc = eng.spawn(buggy(eng))
    parent_proc = eng.spawn(parent(eng))
    eng.run()
    assert parent_proc.value == "caught inner"


def test_yielding_non_event_fails_process():
    eng = Engine()

    def bad(env):
        yield 42

    def parent(env):
        with pytest.raises(SimulationError):
            yield proc
        return "ok"

    proc = eng.spawn(bad(eng))
    parent_proc = eng.spawn(parent(eng))
    eng.run()
    assert parent_proc.value == "ok"


def test_waiting_on_already_processed_event():
    eng = Engine()
    t = eng.timeout(1.0, value="v")
    eng.run()
    assert t.processed

    def late(env):
        value = yield t
        return value

    proc = eng.spawn(late(eng))
    eng.run()
    assert proc.value == "v"


def test_interrupt_just_spawned_process_defers_until_after_bootstrap():
    # The interrupt lands *after* the bootstrap resumption: the body runs
    # up to its first yield and catches the Interrupt there, instead of
    # the exception being thrown into a never-started generator.
    eng = Engine()
    log = []

    def worker(env):
        log.append("body entered")
        try:
            yield env.timeout(10.0)
        except Interrupt as interrupt:
            log.append(f"interrupted: {interrupt.args[0]}")
            return "handled"

    proc = eng.spawn(worker(eng))
    proc.interrupt("immediate")   # before the engine has run at all
    eng.run()
    assert log == ["body entered", "interrupted: immediate"]
    assert proc.value == "handled"


def test_double_interrupt_delivers_both_causes_in_order():
    eng = Engine()

    def sleeper(env):
        causes = []
        for _ in range(2):
            try:
                yield env.timeout(100.0)
            except Interrupt as interrupt:
                causes.append(interrupt.args[0])
        return causes

    proc = eng.spawn(sleeper(eng))
    eng.call_at(5.0, lambda: (proc.interrupt("first"),
                              proc.interrupt("second")))
    eng.run()
    assert proc.value == ["first", "second"]


def test_interrupt_during_all_of_wait():
    eng = Engine()

    def worker(env):
        try:
            yield env.all_of([env.timeout(50.0), env.timeout(80.0)])
        except Interrupt as interrupt:
            return ("interrupted", env.now, interrupt.args[0])
        return "finished"

    proc = eng.spawn(worker(eng))
    eng.call_at(10.0, lambda: proc.interrupt("drain"))
    eng.run()   # the abandoned AllOf still fires at t=80, successfully
    assert proc.value == ("interrupted", 10.0, "drain")
    assert eng.unconsumed_failures == []


def test_interrupt_in_same_instant_as_completion_is_dropped():
    # The target finishes at t=5 before the interrupt's delivery event
    # fires in the same instant: there is no frame left to deliver to, so
    # the interrupt is consumed silently instead of polluting the ledger.
    eng = Engine()

    def quick(env):
        yield env.timeout(5.0)
        return "done"

    fired = []

    def racer(env):
        yield env.timeout(5.0)
        if not proc.triggered:
            proc.interrupt("too late")
            fired.append(True)

    eng.spawn(racer(eng))          # spawned first: resumes first at t=5
    proc = eng.spawn(quick(eng))
    eng.run()
    assert fired == [True]         # the interrupt really was issued...
    assert proc.value == "done"    # ...but the process completed normally
    assert eng.unconsumed_failures == []
