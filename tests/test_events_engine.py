"""Tests for the discrete-event kernel: engine, events, conditions."""

import pytest

from repro.events import Engine, SimulationError, UnconsumedFailureError
from repro.events.engine import AllOf, AnyOf


class TestClock:
    def test_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_custom_start(self):
        assert Engine(start=5.0).now == 5.0

    def test_run_until_advances_clock_without_events(self):
        eng = Engine()
        eng.run(until=10.0)
        assert eng.now == 10.0

    def test_peek_empty_queue_is_inf(self):
        assert Engine().peek() == float("inf")

    def test_nan_start_rejected(self):
        with pytest.raises(ValueError):
            Engine(start=float("nan"))


class TestTimeout:
    def test_timeout_fires_at_delay(self):
        eng = Engine()
        fired = []
        eng.timeout(2.5).callbacks.append(lambda e: fired.append(eng.now))
        eng.run()
        assert fired == [2.5]

    def test_timeout_carries_value(self):
        eng = Engine()
        got = []
        eng.timeout(1.0, value="payload").callbacks.append(
            lambda e: got.append(e.value))
        eng.run()
        assert got == ["payload"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().timeout(-1.0)

    def test_nan_delay_rejected(self):
        eng = Engine()
        with pytest.raises(ValueError):
            eng.timeout(float("nan"))
        assert eng.queue_depth == 0

    def test_zero_delay_fires_immediately(self):
        eng = Engine()
        fired = []
        eng.timeout(0.0).callbacks.append(lambda e: fired.append(eng.now))
        eng.run()
        assert fired == [0.0]


class TestOrdering:
    def test_same_time_events_fire_in_schedule_order(self):
        eng = Engine()
        order = []
        for label in "abc":
            eng.timeout(1.0, value=label).callbacks.append(
                lambda e: order.append(e.value))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_earlier_events_fire_first_regardless_of_schedule_order(self):
        eng = Engine()
        order = []
        eng.timeout(5.0, value="late").callbacks.append(
            lambda e: order.append(e.value))
        eng.timeout(1.0, value="early").callbacks.append(
            lambda e: order.append(e.value))
        eng.run()
        assert order == ["early", "late"]

    def test_run_until_excludes_later_events(self):
        eng = Engine()
        fired = []
        eng.timeout(1.0).callbacks.append(lambda e: fired.append(1))
        eng.timeout(10.0).callbacks.append(lambda e: fired.append(10))
        eng.run(until=5.0)
        assert fired == [1]
        assert eng.now == 5.0


class TestEventStates:
    def test_event_lifecycle(self):
        eng = Engine()
        event = eng.event()
        assert not event.triggered and not event.processed
        event.succeed("v")
        assert event.triggered and not event.processed
        eng.run()
        assert event.processed
        assert event.value == "v"

    def test_double_succeed_rejected(self):
        eng = Engine()
        event = eng.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_then_value_raises(self):
        eng = Engine()
        event = eng.event()
        event.fail(RuntimeError("boom"))
        event.defuse()  # nobody yields this event; we consume it below
        eng.run()
        with pytest.raises(RuntimeError, match="boom"):
            _ = event.value

    def test_unconsumed_failure_raises_at_drain(self):
        eng = Engine()
        eng.event().fail(RuntimeError("boom"))
        with pytest.raises(UnconsumedFailureError, match="boom"):
            eng.run()

    def test_fail_requires_exception(self):
        eng = Engine()
        with pytest.raises(TypeError):
            eng.event().fail("not an exception")

    def test_ok_false_for_failed_event(self):
        eng = Engine()
        event = eng.event()
        event.fail(ValueError("x"))
        assert not event.ok


class TestConditions:
    def test_any_of_fires_on_first(self):
        eng = Engine()
        t1, t2 = eng.timeout(1.0, "a"), eng.timeout(2.0, "b")
        any_event = eng.any_of([t1, t2])
        fired_at = []
        any_event.callbacks.append(lambda e: fired_at.append(eng.now))
        eng.run()
        assert fired_at == [1.0]

    def test_all_of_waits_for_all(self):
        eng = Engine()
        events = [eng.timeout(t) for t in (1.0, 3.0, 2.0)]
        all_event = eng.all_of(events)
        fired_at = []
        all_event.callbacks.append(lambda e: fired_at.append(eng.now))
        eng.run()
        assert fired_at == [3.0]

    def test_all_of_empty_fires_immediately(self):
        eng = Engine()
        assert eng.all_of([]).triggered

    def test_all_of_value_collects_child_values(self):
        eng = Engine()
        t1, t2 = eng.timeout(1.0, "a"), eng.timeout(2.0, "b")
        all_event = eng.all_of([t1, t2])
        eng.run()
        assert sorted(all_event.value.values()) == ["a", "b"]


class TestRunSemantics:
    def test_run_twice_sequentially_is_fine(self):
        eng = Engine()
        eng.timeout(1.0)
        eng.run(until=0.5)
        eng.run(until=2.0)
        assert eng.now == 2.0

    def test_call_at_runs_callback_at_absolute_time(self):
        eng = Engine()
        fired = []
        eng.call_at(7.0, lambda: fired.append(eng.now))
        eng.run()
        assert fired == [7.0]

    def test_call_at_in_past_rejected(self):
        eng = Engine()
        eng.run(until=5.0)
        with pytest.raises(ValueError):
            eng.call_at(1.0, lambda: None)

    def test_call_at_nan_rejected(self):
        eng = Engine()
        fired = []
        eng.timeout(3.0).callbacks.append(lambda e: fired.append(eng.now))
        with pytest.raises(ValueError):
            eng.call_at(float("nan"), lambda: None)
        eng.run(until=5.0)
        assert fired == [3.0]

    def test_run_until_complete_detects_deadlock(self):
        eng = Engine()
        never = eng.event()  # no one will trigger it
        with pytest.raises(SimulationError, match="deadlock"):
            eng.run_until_complete(never)
