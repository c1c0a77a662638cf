"""Tests for the kernel's failure-accounting layer.

Every failed event must be *consumed* (a waiter received the exception)
or explicitly *defused*; anything else must surface as an
:class:`UnconsumedFailureError` diagnostic when the simulation drains.
These tests pin the regression the layer was built for: before it, a
failure injected into a fire-and-forget process — or a late-failing
condition child — was silently dropped, making fault-injection tests
pass vacuously.
"""

import pytest

from repro.events.engine import (Engine, SimulationError,
                                 UnconsumedFailureError)
from repro.events.process import Interrupt


class TestUnconsumedFailures:
    def test_fire_and_forget_process_failure_is_not_silently_dropped(self):
        # THE regression scenario: the old kernel crashed only when the
        # failing process had *no* callbacks at failure time.  Give it one
        # (an AnyOf that already resolved) and the failure used to vanish.
        eng = Engine()

        def buggy(env):
            yield env.timeout(3.0)
            raise RuntimeError("injected fault")

        proc = eng.spawn(buggy(eng), name="fault-injector")
        eng.any_of([eng.timeout(1.0), proc])  # resolves at t=1, before the crash
        with pytest.raises(UnconsumedFailureError) as excinfo:
            eng.run()
        message = str(excinfo.value)
        assert "fault-injector" in message          # names the process
        assert "t=3.000000" in message              # and the simulated time
        assert "injected fault" in message          # and the original error

    def test_diagnostic_includes_traceback(self):
        eng = Engine()

        def buggy(env):
            yield env.timeout(1.0)
            raise ValueError("with context")

        eng.spawn(buggy(eng), name="tb")
        with pytest.raises(UnconsumedFailureError) as excinfo:
            eng.run()
        assert any("raise ValueError" in r.traceback_text
                   for r in excinfo.value.records)

    def test_plain_failed_event_without_waiter_raises_at_drain(self):
        eng = Engine()
        eng.event().fail(RuntimeError("nobody listens"))
        with pytest.raises(UnconsumedFailureError, match="nobody listens"):
            eng.run()

    def test_ledger_records_are_exposed_and_cleared_by_raise(self):
        eng = Engine()
        eng.event().fail(RuntimeError("boom"))
        with pytest.raises(UnconsumedFailureError) as excinfo:
            eng.run()
        assert len(excinfo.value.records) == 1
        assert excinfo.value.records[0].time_s == 0.0
        # The raise reported (and consumed) the records: a caller that
        # catches the diagnostic can keep running.
        assert eng.unconsumed_failures == []
        eng.timeout(1.0)
        eng.run()
        assert eng.now == 1.0

    def test_run_cut_short_by_until_does_not_raise(self):
        # With events still queued a later waiter may yet consume the
        # failure, so only a full drain raises.
        eng = Engine()
        event = eng.event()
        event.fail(RuntimeError("late pickup"))
        eng.timeout(10.0)
        eng.run(until=5.0)
        assert len(eng.unconsumed_failures) == 1

        def late_waiter(env):
            try:
                yield event
            except RuntimeError:
                return "picked up"

        proc = eng.spawn(late_waiter(eng))
        eng.run()
        assert proc.value == "picked up"
        assert eng.unconsumed_failures == []


class TestConsumptionPoints:
    def test_waiting_process_consumes_failure(self):
        eng = Engine()
        event = eng.event()

        def waiter(env):
            try:
                yield event
            except RuntimeError:
                return "handled"

        proc = eng.spawn(waiter(eng))
        event.fail(RuntimeError("handled downstream"))
        eng.run()
        assert proc.value == "handled"

    def test_value_read_consumes_failure(self):
        eng = Engine()
        event = eng.event()
        event.fail(RuntimeError("read me"))
        eng.timeout(1.0)       # keeps the queue alive past the failure
        eng.run(until=0.5)
        with pytest.raises(RuntimeError, match="read me"):
            _ = event.value
        eng.run()              # drains clean: the read consumed the failure

    def test_defuse_suppresses_diagnostic(self):
        eng = Engine()
        event = eng.event()
        event.fail(RuntimeError("expected loss"))
        event.defuse()
        eng.run()
        assert eng.unconsumed_failures == []

    def test_defusing_successful_event_is_noop(self):
        eng = Engine()
        event = eng.event()
        event.succeed("v")
        event.defuse()
        eng.run()
        assert event.value == "v"

    def test_run_until_complete_consumes_target_failure(self):
        eng = Engine()

        def buggy(env):
            yield env.timeout(1.0)
            raise ValueError("surfaced to caller")

        proc = eng.spawn(buggy(eng))
        with pytest.raises(ValueError, match="surfaced to caller"):
            eng.run_until_complete(proc)
        assert eng.unconsumed_failures == []


class TestConditionFailureFlow:
    def test_late_failing_any_of_child_reaches_ledger(self):
        # Regression: the condition already resolved at t=1; the child
        # failing at t=3 used to be swallowed by the triggered-guard.
        eng = Engine()

        def failing_child(env):
            yield env.timeout(3.0)
            raise RuntimeError("late child failure")

        proc = eng.spawn(failing_child(eng), name="late-child")
        eng.any_of([eng.timeout(1.0), proc])
        with pytest.raises(UnconsumedFailureError, match="late-child"):
            eng.run()

    def test_late_failing_all_of_child_reaches_ledger(self):
        eng = Engine()
        first = eng.event()
        second = eng.event()
        combined = eng.all_of([first, second])
        combined.defuse()  # the first failure is absorbed and read below
        first.fail(RuntimeError("first failure"))
        eng.run(until=0.0)
        assert combined.triggered          # aborted by the first failure
        with pytest.raises(RuntimeError, match="first failure"):
            _ = combined.value
        second.fail(RuntimeError("second failure"))
        with pytest.raises(UnconsumedFailureError, match="second failure"):
            eng.run()

    def test_condition_absorbing_failure_consumes_child(self):
        eng = Engine()
        bad = eng.event()

        def waiter(env):
            try:
                yield env.all_of([env.timeout(5.0), bad])
            except RuntimeError:
                return "condition failed"

        proc = eng.spawn(waiter(eng))
        bad.fail(RuntimeError("absorbed"))
        eng.run()
        assert proc.value == "condition failed"
        assert eng.unconsumed_failures == []

    def test_late_success_is_still_ignored(self):
        eng = Engine()
        first = eng.event()
        second = eng.event()
        any_event = eng.any_of([first, second])
        first.succeed("first")
        eng.run(until=0.0)
        assert any_event.value == {first: "first"}
        second.succeed("late")
        eng.run()  # a late *success* needs no defusing; the drain is clean


class TestProcessedEventCallbackGuard:
    def test_append_after_processed_raises(self):
        eng = Engine()
        t = eng.timeout(1.0)
        eng.run()
        assert t.processed
        with pytest.raises(SimulationError, match="already-processed"):
            t.callbacks.append(lambda e: None)

    def test_yield_on_processed_event_still_works(self):
        eng = Engine()
        t = eng.timeout(1.0, value="v")
        eng.run()

        def late(env):
            return (yield t)

        proc = eng.spawn(late(eng))
        eng.run()
        assert proc.value == "v"

    def test_yield_on_processed_failed_event_consumes_failure(self):
        eng = Engine()
        failed = eng.event()
        failed.fail(RuntimeError("stale failure"))
        eng.timeout(2.0)
        eng.run(until=1.0)
        assert len(eng.unconsumed_failures) == 1

        def late(env):
            try:
                yield failed
            except RuntimeError:
                return "late consumption"

        proc = eng.spawn(late(eng))
        eng.run()
        assert proc.value == "late consumption"
        assert eng.unconsumed_failures == []


class TestInterruptLedgerInteraction:
    def test_unhandled_interrupt_without_waiter_reaches_ledger(self):
        eng = Engine()

        def sleeper(env):
            yield env.timeout(100.0)

        proc = eng.spawn(sleeper(eng), name="killed")
        eng.call_at(5.0, lambda: proc.interrupt("forced"))
        with pytest.raises(UnconsumedFailureError, match="killed"):
            eng.run()

    def test_defused_kill_is_intentional(self):
        eng = Engine()

        def sleeper(env):
            yield env.timeout(100.0)

        proc = eng.spawn(sleeper(eng), name="killed-on-purpose")
        eng.call_at(5.0, lambda: (proc.interrupt("shutdown"), proc.defuse()))
        eng.run()
        assert proc.triggered
        assert isinstance(proc._exception, Interrupt)
        assert eng.unconsumed_failures == []
