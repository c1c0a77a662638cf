"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``report``      regenerate EXPERIMENTS.md (all tables and figures)
``quickstart``  boot the cluster and run a short HPL job
``scaling``     print the Fig. 2 strong-scaling table and ASCII plot
``stack``       deploy the Table I software stack and list it
``power``       print the Table VI power model and boot decomposition
``lint``        run simlint (determinism / engine / calibration / units)
``trace``       run a traced experiment, export Chrome trace_event JSON
``chaos``       run a fault-injection campaign, verify recovery invariants
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import generate_experiments_report

    text = generate_experiments_report(
        full_sim_duration_s=args.sim_duration)
    output = Path(args.output)
    output.write_text(text)
    print(f"wrote {output} ({len(text)} chars)")
    return 0


def _cmd_quickstart(_args: argparse.Namespace) -> int:
    from repro.cluster.cluster import MonteCimoneCluster
    from repro.power.model import HPL_PROFILE
    from repro.slurm.api import SlurmAPI
    from repro.thermal.enclosure import EnclosureConfig

    cluster = MonteCimoneCluster(
        enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    api = SlurmAPI(cluster.slurm)
    print(api.sinfo())
    job = api.srun("hpl", "operator", nodes=8, duration_s=300.0,
                   profile=HPL_PROFILE)
    print(f"job {job.job_id}: {job.state.value}, "
          f"power peak ~{8 * 5.935:.1f} W, "
          f"hottest node {cluster.hottest_node()[0]} at "
          f"{cluster.hottest_node()[1]:.1f} °C")
    return 0


def _cmd_scaling(_args: argparse.Namespace) -> int:
    from repro.benchmarks.hpl import HPLModel
    from repro.perf.plots import render_scaling_plot
    from repro.perf.scaling import strong_scaling_table

    points = strong_scaling_table(HPLModel())
    print(render_scaling_plot(points))
    return 0


def _cmd_stack(_args: argparse.Namespace) -> int:
    from repro.spack.display import render_find
    from repro.spack.environment import SpackEnvironment
    from repro.spack.installer import Installer

    installer = Installer()
    SpackEnvironment.monte_cimone().install(installer)
    print(render_find(installer))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.analysis.validate import render_checklist, run_validation

    checks = run_validation(include_slow=args.slow)
    print(render_checklist(checks))
    return 0 if all(check.passed for check in checks) else 1


def _cmd_power(_args: argparse.Namespace) -> int:
    from repro.analysis.experiments import fig4_boot_power, table6_power
    from repro.analysis.tables import render_table

    table = table6_power()
    rails = list(next(iter(table.values())))
    rows = [[rail] + [f"{table[c][rail][0]:.0f}" for c in table]
            for rail in rails]
    print(render_table(["rail (mW)"] + list(table), rows))
    print()
    for key, value in fig4_boot_power().items():
        print(f"  {key:24s} {value:.4g}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    argv = list(args.paths) or ["src"]
    if args.format != "text":
        argv += ["--format", args.format]
    if args.show_suppressed:
        argv.append("--show-suppressed")
    return lint_main(argv)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.experiments import TRACED_EXPERIMENTS
    from repro.obs.export import (chrome_trace_json, span_tree_text,
                                  to_chrome_trace, validate_chrome_trace)

    tracer = TRACED_EXPERIMENTS[args.experiment]()
    if args.format in ("tree", "both"):
        print(span_tree_text(tracer))
    if args.format in ("chrome", "both"):
        output = Path(args.output if args.output
                      else f"{args.experiment}-trace.json")
        output.write_text(chrome_trace_json(tracer))
        print(f"wrote {output} ({len(tracer.spans)} spans); load it in "
              f"chrome://tracing or https://ui.perfetto.dev")
    if args.check:
        problems = validate_chrome_trace(to_chrome_trace(tracer))
        if problems:
            for problem in problems:
                print(f"INVALID: {problem}")
            return 1
        print("trace_event schema: OK")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.check import run_checks
    from repro.chaos.scenarios import run_scenario

    result = run_scenario(args.scenario, seed=args.seed)
    for line in result.log.lines():
        print(line)
    print(f"{result.name}: seed={result.seed} "
          f"faults={len(result.log.injections())} "
          f"restores={len(result.log.restores())}")
    if not args.check:
        return 0
    problems = run_checks(result)
    if problems:
        for problem in problems:
            print(f"INVARIANT VIOLATED: {problem}")
        return 1
    print("recovery invariants: OK "
          "(every fault has a matching recovery span, ledger clean)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Monte Cimone reproduction (SOCC 2022)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    report = subparsers.add_parser("report",
                                   help="regenerate EXPERIMENTS.md")
    report.add_argument("--output", default="EXPERIMENTS.md")
    report.add_argument("--sim-duration", type=float, default=600.0)
    report.set_defaults(func=_cmd_report)

    validate = subparsers.add_parser(
        "validate", help="run the paper-claims validation checklist")
    validate.add_argument("--slow", action="store_true",
                          help="include the Fig. 6 cluster simulation")
    validate.set_defaults(func=_cmd_validate)

    lint = subparsers.add_parser(
        "lint", help="run simlint over the source tree")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--show-suppressed", action="store_true")
    lint.set_defaults(func=_cmd_lint)

    trace = subparsers.add_parser(
        "trace", help="trace the simulator itself over a canned experiment")
    trace.add_argument("experiment",
                       choices=("boot-power", "fault-recovery"),
                       help="which instrumented scenario to run")
    trace.add_argument("--output", default=None,
                       help="Chrome trace JSON path "
                            "(default: <experiment>-trace.json)")
    trace.add_argument("--format", choices=("chrome", "tree", "both"),
                       default="both",
                       help="chrome trace_event JSON, text span tree, or both")
    trace.add_argument("--check", action="store_true",
                       help="validate the export against the trace_event "
                            "schema (exit 1 on problems)")
    trace.set_defaults(func=_cmd_trace)

    chaos = subparsers.add_parser(
        "chaos", help="run a seeded fault-injection campaign")
    chaos.add_argument("scenario",
                       choices=("examon-outage", "link-flap",
                                "sensor-dropout", "service-outage",
                                "node-trip"),
                       help="which chaos campaign to run")
    chaos.add_argument("--seed", type=int, default=0,
                       help="campaign seed (same seed → identical log)")
    chaos.add_argument("--check", action="store_true",
                       help="verify the recovery invariants "
                            "(exit 1 on violations)")
    chaos.set_defaults(func=_cmd_chaos)

    for name, func, help_text in [
        ("quickstart", _cmd_quickstart, "boot the cluster, run HPL"),
        ("scaling", _cmd_scaling, "Fig. 2 strong-scaling plot"),
        ("stack", _cmd_stack, "deploy and list the Table I stack"),
        ("power", _cmd_power, "Table VI power model"),
    ]:
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(func=func)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
