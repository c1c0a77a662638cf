"""Per-rule tests for simlint: every family has positive and negative cases,
plus suppression-comment handling and the CLI exit-code contract."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint.cli import main as lint_main
from repro.lint.findings import Severity
from repro.lint.registry import all_rules
from repro.lint.runner import PARSE_RULE_ID, lint_paths, lint_source
from repro.lint.suppress import parse_suppressions

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC = Path(__file__).resolve().parents[1] / "src"


def ids(source, **kwargs):
    """Unsuppressed rule ids found in ``source`` (dedented)."""
    findings = lint_source(textwrap.dedent(source), **kwargs)
    return sorted({f.rule_id for f in findings if not f.suppressed})


class TestRegistry:
    def test_catalogue_has_all_four_families(self):
        families = {rule.family for rule in all_rules()}
        assert {"DET", "ENG", "CAL", "UNIT"} <= families

    def test_ids_are_unique_and_prefixed(self):
        rules = all_rules()
        assert len({r.id for r in rules}) == len(rules)
        assert all(r.id.startswith(r.family) for r in rules)

    def test_rules_load_on_demand(self):
        # No package __init__ preloads the rule modules, so all_rules()
        # must register them in an interpreter that imported nothing else.
        count = subprocess.run(
            [sys.executable, "-c", "from repro.lint.registry import "
             "all_rules; print(len(all_rules()))"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
        assert int(count) == len(all_rules())


class TestDeterminismRules:
    def test_wall_clock_flagged(self):
        assert "DET101" in ids("""
            import time
            def stamp():
                return time.time()
        """)

    def test_datetime_now_flagged(self):
        assert "DET101" in ids("""
            from datetime import datetime
            def stamp():
                return datetime.now()
        """)

    def test_simulated_clock_clean(self):
        assert ids("""
            def stamp(engine):
                return engine.now
        """) == []

    def test_global_random_flagged(self):
        assert "DET102" in ids("""
            import random
            def draw():
                return random.randint(0, 10)
        """)

    def test_np_global_random_flagged(self):
        assert "DET102" in ids("""
            import numpy as np
            def draw():
                return np.random.normal()
        """)

    def test_seeded_generator_clean(self):
        assert ids("""
            import numpy as np
            def draw(seed):
                rng = np.random.default_rng(seed)
                return rng.normal()
        """) == []

    def test_unseeded_default_rng_flagged(self):
        source = """
            import numpy as np
            def draw():
                return np.random.default_rng().normal()
        """
        assert "DET103" in ids(source)

    def test_unseeded_random_instance_flagged(self):
        assert "DET105" in ids("""
            import random
            def make_rng():
                return random.Random()
        """)

    def test_none_seeded_random_instance_flagged(self):
        assert "DET105" in ids("""
            import random
            def make_rng():
                return random.Random(None)
        """)

    def test_seeded_random_instance_clean(self):
        assert ids("""
            import random
            def make_rng(seed):
                return random.Random(seed)
        """) == []

    def test_bare_random_import_flagged(self):
        assert "DET105" in ids("""
            from random import Random
            def make_rng():
                return Random()
        """)

    def test_hash_for_seed_flagged(self):
        # The exact bug simlint was built to catch (power/traces.py pre-fix).
        assert "DET104" in ids("""
            def seed_for(workload, group):
                return 2022 + hash((workload, group)) % 65536
        """)

    def test_hash_inside_dunder_hash_exempt(self):
        assert ids("""
            class Spec:
                def __hash__(self):
                    return hash(('spec', 1))
        """) == []


class TestEngineRules:
    def test_yield_constant_flagged(self):
        assert "ENG201" in ids("""
            def proc(env):
                yield env.timeout(1.0)
                yield 5
        """)

    def test_bare_yield_flagged(self):
        assert "ENG201" in ids("""
            def proc(env):
                yield env.timeout(1.0)
                yield
        """)

    def test_plain_generator_not_a_process(self):
        # Renderer generators yield strings; they never yield event-factory
        # calls, so the ENG heuristic must leave them alone.
        assert ids("""
            def render_rows(table):
                yield "header"
                for row in table:
                    yield f"{row}"
        """) == []

    def test_event_yields_clean(self):
        assert ids("""
            def proc(env):
                value = yield env.timeout(2.0)
                yield env.all_of([env.timeout(1), env.spawn(child(env))])
                return value
        """) == []

    def test_reentrant_run_flagged(self):
        assert "ENG202" in ids("""
            def proc(engine):
                yield engine.timeout(1.0)
                engine.run()
        """)

    def test_run_outside_process_clean(self):
        assert ids("""
            def drive(engine):
                engine.run(until=10.0)
        """) == []

    def test_time_sleep_flagged(self):
        assert "ENG203" in ids("""
            import time
            def wait():
                time.sleep(1.0)
        """)

    def test_raw_callback_append_flagged(self):
        assert "ENG204" in ids("""
            def attach(event, fn):
                event.callbacks.append(fn)
        """)

    def test_raw_callback_append_on_nested_receiver_flagged(self):
        assert "ENG204" in ids("""
            def chain(self, proc):
                self._target.callbacks.append(proc._resume)
        """)

    def test_raw_callback_append_exempt_inside_kernel(self):
        # The kernel's own wiring is the one place raw appends are legal.
        assert ids("""
            def attach(event, fn):
                event.callbacks.append(fn)
        """, path="src/repro/events/process.py") == []

    def test_other_appends_clean(self):
        # Only the `.callbacks` receiver is the kernel contract; ordinary
        # list appends (including listener lists) stay untouched.
        assert ids("""
            def collect(controller, rows, row):
                rows.append(row)
                controller.on_job_end.append(row)
        """) == []


class TestCalibrationRules:
    def test_duplicated_ddr_peak_flagged(self):
        findings = lint_source("PEAK = 7760e6\n")
        assert [f.rule_id for f in findings] == ["CAL301"]
        assert "peak_bandwidth_bytes_per_s" in findings[0].message

    def test_duplicated_clock_flagged(self):
        assert ids("CLOCK = 1.2e9\n") == ["CAL301"]

    def test_imported_constant_clean(self):
        assert ids("""
            from repro.hardware.specs import DDR_SPEC
            PEAK = DDR_SPEC.peak_bandwidth_bytes_per_s
        """) == []

    def test_undistinctive_values_clean(self):
        # Powers of two/ten and small numbers never anchor.
        assert ids("X = 1024\nY = 1e9\nZ = 64\nW = 0.465\n") == []

    def test_specs_module_itself_exempt(self):
        assert ids("PEAK = 7760e6\n",
                   path="src/repro/hardware/specs.py") == []


class TestUnitRules:
    def test_mixed_addition_flagged(self):
        assert "UNIT401" in ids("""
            def total(power_w, leak_mw):
                return power_w + leak_mw
        """)

    def test_mixed_comparison_flagged(self):
        assert "UNIT401" in ids("""
            def over(budget_s, elapsed_ms):
                return elapsed_ms > budget_s
        """)

    def test_same_unit_clean(self):
        assert ids("""
            def total(a_mw, b_mw):
                return a_mw + b_mw
        """) == []

    def test_different_dimensions_clean(self):
        # power × time is energy; multiplying across dimensions is the norm.
        assert ids("""
            def energy(power_w, dt_s):
                return power_w * dt_s
        """) == []

    def test_direct_assignment_flagged(self):
        assert "UNIT402" in ids("""
            def convert(power_mw):
                power_w = power_mw
                return power_w
        """)

    def test_converted_assignment_clean(self):
        assert ids("""
            def convert(power_mw):
                power_w = power_mw / 1e3
                return power_w
        """) == []

    def test_keyword_argument_flagged(self):
        assert "UNIT402" in ids("""
            def build(make, size_mib):
                return make(size_bytes=size_mib)
        """)

    def test_per_suffix_rates_exempt(self):
        assert ids("""
            def scale(bandwidth_bytes_per_s, window_ms):
                return bandwidth_bytes_per_s, window_ms
        """) == []


class TestSuppression:
    def test_line_suppression(self):
        findings = lint_source(
            "SEED = hash('x')  # simlint: disable=DET104  (stable enough here)\n")
        assert [f.rule_id for f in findings] == ["DET104"]
        assert findings[0].suppressed

    def test_family_suppression(self):
        findings = lint_source("SEED = hash('x')  # simlint: disable=DET\n")
        assert findings[0].suppressed

    def test_file_level_suppression(self):
        source = ("# simlint: disable-file=CAL301\n"
                  "A = 7760e6\n"
                  "B = 1.2e9\n")
        findings = lint_source(source)
        assert len(findings) == 2 and all(f.suppressed for f in findings)

    def test_suppression_is_line_scoped(self):
        source = ("A = hash('x')  # simlint: disable=DET104\n"
                  "B = hash('y')\n")
        findings = lint_source(source)
        assert [f.suppressed for f in findings] == [True, False]

    def test_wrong_rule_id_does_not_suppress(self):
        findings = lint_source("A = hash('x')  # simlint: disable=CAL301\n")
        assert not findings[0].suppressed

    def test_directive_inside_string_ignored(self):
        findings = lint_source(
            'A = hash("# simlint: disable=DET104")\n')
        assert not findings[0].suppressed

    def test_parse_suppressions_grammar(self):
        sup = parse_suppressions(
            "# simlint: disable-file=UNIT\n"
            "x = 1  # simlint: disable=DET101, ENG203\n")
        assert sup.is_suppressed("UNIT401", "UNIT", 99)
        assert sup.is_suppressed("DET101", "DET", 2)
        assert sup.is_suppressed("ENG203", "ENG", 2)
        assert not sup.is_suppressed("DET101", "DET", 3)


class TestRunnerAndCli:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule_id for f in findings] == [PARSE_RULE_ID]
        assert findings[0].severity is Severity.ERROR

    def test_violating_fixture_trips_every_family(self):
        result = lint_paths([FIXTURES / "violating.py"])
        families = {f.rule_id[:3] for f in result.active}
        assert {"DET", "ENG", "CAL", "UNI"} <= families
        assert not result.ok

    def test_clean_fixture_passes(self):
        result = lint_paths([FIXTURES / "clean.py"])
        assert result.ok and result.files_checked == 1

    def test_cli_exit_codes(self, capsys):
        assert lint_main([str(FIXTURES / "violating.py")]) == 1
        assert lint_main([str(FIXTURES / "clean.py")]) == 0
        capsys.readouterr()

    def test_cli_select_and_ignore(self, capsys):
        # Only the UNIT family selected: DET/CAL/ENG findings must vanish.
        assert lint_main(["--select", "DET104",
                          str(FIXTURES / "clean.py")]) == 0
        assert lint_main(["--select", "UNIT",
                          str(FIXTURES / "violating.py")]) == 1
        out = capsys.readouterr().out
        assert "UNIT401" in out and "DET104" not in out

    def test_cli_json_format(self, capsys):
        import json
        assert lint_main(["--format", "json",
                          str(FIXTURES / "violating.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["active"] == len(payload["findings"]) > 0

    def test_cli_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET101", "ENG201", "ENG204", "CAL301", "UNIT401"):
            assert rule_id in out

    def test_repro_main_lint_subcommand(self, capsys):
        from repro.__main__ import main as repro_main
        assert repro_main(["lint", str(FIXTURES / "clean.py")]) == 0
        assert repro_main(["lint", str(FIXTURES / "violating.py")]) == 1
        capsys.readouterr()
