"""End-to-end chaos campaigns: invariants, determinism, CLI contract.

The acceptance criteria of the chaos harness: every canned scenario
passes the recovery-invariant checker, identical seeds produce
byte-identical fault/recovery logs, the ExaMon outage window is covered
by backfilled samples, and ``python -m repro chaos <scenario> --check``
exits 0 (1 on a violated invariant).
"""

import pytest

from repro.__main__ import main as repro_main
from repro.chaos.check import backfill_coverage, run_checks, verify_recovery
from repro.chaos.faults import ChaosLog, FaultKind
from repro.chaos.scenarios import SCENARIOS, run_scenario
from repro.examon.tsdb import TimeSeriesDB


@pytest.fixture(scope="module")
def results():
    """Each scenario once, shared across the assertions below."""
    return {name: run_scenario(name, seed=0) for name in SCENARIOS}


class TestInvariants:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_passes_checker(self, results, name):
        assert run_checks(results[name]) == []

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_fault_span_has_recovery(self, results, name):
        result = results[name]
        faults = [s for s in result.tracer.spans
                  if s.category == "chaos.fault"]
        assert faults, "campaign injected nothing"
        recoveries = [s for s in result.tracer.spans
                      if s.category == "chaos.recovery"]
        for fault in faults:
            key = (fault.attributes["kind"], fault.attributes["target"])
            assert any((r.attributes["kind"], r.attributes["target"]) == key
                       and r.end_s >= fault.start_s for r in recoveries)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_failure_ledger_is_clean(self, results, name):
        assert results[name].engine.unconsumed_failures == []

    def test_examon_outage_backfill_covers_windows(self, results):
        result = results["examon-outage"]
        spec = result.extras["backfill"]
        assert spec["topics"], "no pmu series stored for the checked node"
        assert backfill_coverage(**spec) == []
        assert result.extras["samples_backfilled"] > 0

    def test_link_flap_actually_retried(self, results):
        assert results["link-flap"].extras["retries"] > 0

    def test_service_outage_replayed_the_queue(self, results):
        assert results["service-outage"].extras["job_id"] is not None

    def test_every_fault_kind_is_injected_by_a_scenario(self, results):
        # A fault kind that no campaign injects is checked by no invariant.
        kinds = {value for name, value in vars(FaultKind).items()
                 if name.isupper()}
        injected = {event.kind for result in results.values()
                    for event in result.log.injections()}
        assert kinds == injected


class TestDeterminism:
    def test_same_seed_byte_identical_logs(self):
        first = run_scenario("link-flap", seed=3)
        second = run_scenario("link-flap", seed=3)
        assert first.log.dumps() == second.log.dumps()
        assert first.log.dumps()  # non-empty

    def test_different_seed_different_campaign(self):
        a = run_scenario("link-flap", seed=1)
        b = run_scenario("link-flap", seed=2)
        assert a.log.dumps() != b.log.dumps()

    def test_sensor_scenario_deterministic(self):
        a = run_scenario("sensor-dropout", seed=11)
        b = run_scenario("sensor-dropout", seed=11)
        assert a.log.dumps() == b.log.dumps()


class TestChecker:
    def test_unrecovered_fault_is_flagged(self):
        result = run_scenario("link-flap", seed=0)
        # Forge a fault span nobody recovered from.
        result.tracer.record("fault:link-down:ghost", 1.0, 2.0,
                             category="chaos.fault", kind="link-down",
                             target="ghost-link")
        problems = verify_recovery(result.tracer, result.engine, result.log)
        assert any("ghost-link" in p for p in problems)

    def test_unrestored_injection_is_flagged(self):
        log = ChaosLog()
        log.add(1.0, "inject", "broker-outage", "mc-master")
        result = run_scenario("sensor-dropout", seed=0)
        problems = verify_recovery(result.tracer, result.engine, log)
        assert any("never restored" in p for p in problems)

    def test_backfill_gap_is_flagged(self):
        db = TimeSeriesDB()
        db.insert("topic/a", 0.0, 1.0)
        db.insert("topic/a", 10.0, 1.0)  # 10 s hole
        problems = backfill_coverage(db, ["topic/a"], [(0.0, 10.0)],
                                     period_s=1.0)
        assert problems and "gap" in problems[0]

    def test_covered_window_is_clean(self):
        db = TimeSeriesDB()
        for i in range(11):
            db.insert("topic/a", float(i), 1.0)
        assert backfill_coverage(db, ["topic/a"], [(0.0, 10.0)],
                                 period_s=1.0) == []


class TestCLI:
    def test_chaos_check_exits_zero(self, capsys):
        assert repro_main(["chaos", "sensor-dropout", "--check"]) == 0
        out = capsys.readouterr().out
        assert "inject sensor-dropout" in out
        assert "recovery invariants: OK" in out

    def test_chaos_without_check_prints_log(self, capsys):
        assert repro_main(["chaos", "link-flap", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "inject link-down" in out
        assert "recovery invariants" not in out

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            repro_main(["chaos", "no-such-scenario"])
