#!/usr/bin/env python3
"""Run one benchmark workload against the program in ``src/`` and report.

From the repository root::

    python3 perfbench/run.py --workload examon_query --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` makes the same untraced measurement, then one traced set-up
and iteration, and reports the per-layer metrics of the timed part (see
``layers.py``).  ``--workload all`` runs every workload in its own process
and prints a summary.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Each run checks the workload's outputs, checks that every iteration
produced the same deterministic counters, and compares them with the
counters an earlier run of the same seed and source tree left in
``.perfbench/``: a difference is reported as nondeterminism.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RECORDS = ROOT / ".perfbench"
WORKLOAD_NAMES = ("fig6_runaway", "examon_query", "job_trace",
                  "chaos_campaign")
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
#: Per-layer metrics only the chaos workload's results carry.
CHAOS_METRICS = ("chaos.faults_injected", "chaos.recoveries",
                 "chaos.violations")
#: Every per-layer metric a traced run reports, in report order.
PER_LAYER = (*CHAOS_METRICS, "trace.run_s", "trace.overhead_s")


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def _source_digest() -> str:
    """Digest of the program and benchmark sources a record belongs to."""
    digest = hashlib.sha256()
    files = sorted([*ROOT.joinpath("src").rglob("*.py"),
                    *BENCH_DIR.glob("*.py")])
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _compare_record(key: str, counters: Dict[str, Any]) -> List[str]:
    """Check ``counters`` against earlier runs' and add the new ones.

    Runs of different lengths see different iterations, so only the
    counters both runs produced are compared.
    """
    counters = json.loads(json.dumps(counters, sort_keys=True))
    path = RECORDS / f"{key}.json"
    earlier = json.loads(path.read_text()) if path.is_file() else {}
    problems = [f"nondeterminism: {name} is {counters[name]!r} here, "
                f"{earlier[name]!r} in an earlier run of {key}"
                for name in sorted(set(earlier) & set(counters))
                if earlier[name] != counters[name]]
    if not set(counters) <= set(earlier):
        RECORDS.mkdir(exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.tmp")
        partial.write_text(json.dumps({**counters, **earlier},
                                      sort_keys=True, indent=0))
        partial.replace(path)
    return problems[:10]


def _differences(first: Dict[str, Any], other: Dict[str, Any]) -> List[str]:
    return [name for name in sorted(set(first) | set(other))
            if first.get(name) != other.get(name)]


def measure(workload: Any, seed: int, seconds: float,
            speed: Any) -> Dict[str, Any]:
    """Untraced set-ups and iterations until ``seconds`` of timed work.

    Every set-up and iteration is also rescaled by ``speed`` (see
    ``hostspeed.py``), which must be sampling, once all are done.
    """
    setups: List[Tuple[float, float]] = []
    state = None

    def set_up() -> Any:
        gc.collect()
        start = time.perf_counter()
        fresh = workload.setup(seed)
        setups.append((start, time.perf_counter()))
        return fresh

    for _ in range(workload.setup_reps):
        state = None
        state = set_up()
    if not workload.uses_state:
        state = None
    outcomes: List[Any] = []
    spans: List[Tuple[float, float]] = []
    while not outcomes or sum(o.elapsed_s for o in outcomes) < seconds:
        if outcomes and workload.fresh_state:
            state = None
            state = set_up()
        gc.collect()
        start = time.perf_counter()
        outcomes.append(workload.iterate(state, seed, len(outcomes)))
        spans.append((start, time.perf_counter()))
    state = None
    gc.collect()
    problems = [p for o in outcomes for p in o.problems]
    for i in range(workload.cycle, len(outcomes)):
        first = i % workload.cycle
        changed = _differences(outcomes[first].counters, outcomes[i].counters)
        if changed:
            problems.append(f"nondeterminism: iteration {i} differs from "
                            f"iteration {first} in {changed[:5]}")
    return {
        "raw_setups": [end - start for start, end in setups],
        "setup_times": [speed.scaled(start, end, end - start)
                        for start, end in setups],
        "outcomes": outcomes,
        "run_times": [speed.scaled(start, end, o.elapsed_s)
                      for (start, end), o in zip(spans, outcomes)],
        "factors": [speed.factor(start, end) for start, end in spans],
        "problems": problems,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def end_to_end_lines(name: str, run: Dict[str, Any]) -> Tuple[Dict[str, float],
                                                             List[str]]:
    """End-to-end metrics and the report lines that describe them."""
    outcomes, factors = run["outcomes"], run["factors"]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    raw_runs = [o.elapsed_s for o in outcomes]
    metrics = {
        "setup_s": statistics.median(run["setup_times"]),
        "run_s": statistics.median(run["run_times"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    lines = [
        f"{name}: {len(run['setup_times'])} set-ups, {len(outcomes)} timed "
        f"iterations, {attempted} operations",
        f"host speed factor: median {statistics.median(factors):.4g}, "
        f"min {min(factors):.4g}, max {max(factors):.4g} (times below are "
        f"host seconds at nominal speed; raw host seconds in brackets)",
        f"metric setup_s {metrics['setup_s']:.6g} s "
        f"[{statistics.median(run['raw_setups']):.6g}]",
        f"metric run_s {metrics['run_s']:.6g} s "
        f"[{statistics.median(raw_runs):.6g}; min {min(raw_runs):.6g}, "
        f"max {max(raw_runs):.6g}]",
        f"metric peak_rss_mb {metrics['peak_rss_mb']:.6g} MB",
        f"metric error_share {failed / attempted:.6g} share "
        f"({failed} of {attempted} operations failed)",
    ]
    latencies = [t * f for o, f in zip(outcomes, factors)
                 for t in o.latencies_s]
    if latencies:
        cuts = statistics.quantiles(latencies, n=100)
        lines += [
            f"metric queries_per_s {len(latencies) / sum(latencies):.6g} 1/s",
            f"metric query_p50_ms {statistics.median(latencies) * 1e3:.6g} ms",
            f"metric query_p99_ms {cuts[98] * 1e3:.6g} ms "
            f"({len(latencies)} requests, one closed-loop client)",
        ]
    return metrics, lines


def traced_run(workload: Any, seed: int, untraced: Any, untraced_run_s: float,
               speed: Any, layers: Any) -> Tuple[Dict[str, float], List[str],
                                                 List[str], Dict[str, Any],
                                                 Any]:
    """One traced set-up and iteration; per-layer metrics of the iteration.

    ``untraced`` is the untraced run's first iteration, which had the same
    inputs: the traced iteration must reproduce its counters exactly.
    """
    tracer = layers.LayerTracer()
    gc.collect()
    tracer.install()
    try:
        zero = tracer.snapshot()
        start = time.perf_counter()
        state = workload.setup(seed)
        setup_wall = time.perf_counter() - start
        after_setup = tracer.snapshot()
        if not workload.uses_state:
            state = None
        gc.collect()
        start = time.perf_counter()
        outcome = workload.iterate(state, seed, 0)
        end = time.perf_counter()
        after_run = tracer.snapshot()
    finally:
        tracer.restore()
    state = None
    factor = speed.factor(start, end)
    problems = list(outcome.problems)
    changed = _differences(untraced.counters, outcome.counters)
    if changed:
        problems.append(f"tracing changed the outputs: {changed[:5]}")
    problems += [f"missing entry point: {key}" for key in tracer.missing]
    problems += [f"self-test: {where} still wrapped after restore"
                 for where in tracer.leftover_wrappers()]
    calls = tracer.calls(zero, after_run)
    for key in workload.expected_calls:
        if key not in calls:
            problems.append(f"zero-call guard: {key} is not probed")
        elif not calls[key]:
            problems.append(f"zero-call guard: {key} recorded no call")

    metrics = tracer.layer_metrics(after_setup, after_run, outcome.elapsed_s)
    for metric in metrics:
        if _unit(metric) == "s":
            metrics[metric] *= factor
    for metric in CHAOS_METRICS:
        metrics[metric] = float(outcome.layer_counts.get(metric, 0))
    metrics["trace.run_s"] = speed.scaled(start, end, outcome.elapsed_s)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - untraced_run_s

    setup_metrics = tracer.layer_metrics(zero, after_setup, setup_wall)
    lines = [f"traced run (host speed factor {factor:.4g}, per-layer times "
             f"scaled by it; top lists in raw host seconds): set-up "
             f"{setup_wall:.4g} s, timed part {outcome.elapsed_s:.4g} s"]
    for phase, before, after in (("set-up", zero, after_setup),
                                 ("timed part", after_setup, after_run)):
        lines.append(f"top self time, {phase} (entry point, s, calls):")
        lines += [f"  {key:42s} {self_s:9.4f} {count:9d}"
                  for key, self_s, count in tracer.top_self_time(before, after)
                  if count]
    lines += _predictions(workload.name, metrics, setup_metrics, calls)
    counters = {"calls": {k: v for k, v in sorted(calls.items()) if v},
                "setup": after_setup["program"],
                "run": {k: v for k, v in metrics.items() if _unit(k) != "s"},
                **outcome.counters}
    return metrics, lines, problems, counters, outcome


def _predictions(name: str, run: Dict[str, float], setup: Dict[str, float],
                 calls: Dict[str, int]) -> List[str]:
    """Report lines on the README's predictions for this workload."""
    self_times = {m: v for m, v in run.items() if m.endswith("self_s")
                  or m in ("examon.tsdb.insert_s", "examon.tsdb.query_s",
                           "unattributed_s")}
    write = ("examon.plugins.self_s", "examon.payload.self_s",
             "examon.broker.self_s", "examon.tsdb.insert_s")
    read = ("examon.tsdb.query_s", "examon.dashboard.self_s",
            "examon.rest.self_s")

    def share(group: Tuple[str, ...]) -> str:
        total = sum(self_times.values())
        part = sum(self_times[m] for m in group)
        rest = max((v for m, v in self_times.items() if m not in group),
                   default=0.0)
        verdict = "holds" if part > rest else "does not hold"
        return (f"{part:.4g} s of {total:.4g} s ({part / total:.1%}), "
                f"largest other entry {rest:.4g} s: {verdict}")

    lines = []
    if name == "fig6_runaway":
        lines.append("prediction: ExaMon write path is the largest share "
                     "of the timed part: " + share(write))
    elif name == "examon_query":
        lines.append("prediction: tsdb query + dashboard + REST is the "
                     "largest share of the timed part: " + share(read))
        writes = sum(setup[m] for m in write)
        lines.append(f"prediction: the set-up carries the write path: "
                     f"{writes:.4g} s of ExaMon write self time in set-up")
    elif name == "job_trace":
        examon_calls = sum(v for k, v in calls.items() if k.split(".")[0] in (
            "SamplingPlugin", "payload", "MQTTBroker", "TimeSeriesDB",
            "Dashboard", "ExamonRestAPI"))
        verdict = "holds" if examon_calls == 0 else "does not hold"
        lines.append(f"prediction: no ExaMon calls: {examon_calls} calls, "
                     f"{verdict}")
    return lines


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hostspeed
    import layers
    import workloads

    workload = workloads.WORKLOADS[name]
    with hostspeed.HostSpeed() as speed:
        run = measure(workload, seed, seconds, speed)
        if trace:
            traced = traced_run(workload, seed, run["outcomes"][0],
                                statistics.median(run["run_times"]), speed,
                                layers)
    metrics, lines = end_to_end_lines(name, run)
    problems = list(run["problems"])
    outcomes = run["outcomes"]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    counters: Dict[str, Any] = {}
    for outcome in outcomes:
        counters.update(outcome.counters)
    reported = {m: (metrics[m], unit) for m, unit in END_TO_END}
    if trace:
        layer, trace_lines, trace_problems, counters, outcome = traced
        lines += trace_lines
        problems += trace_problems
        attempted += outcome.attempted
        failed += outcome.failed
        reported = {m: (layer[m], _unit(m)) for m in
                    (*layers.LAYER_METRICS, *PER_LAYER)}
        lines += [f"layer {m} {v:.6g} {unit}" for m, (v, unit)
                  in reported.items()]
    problems += _compare_record(
        f"{name}-seed{seed}-trace{int(trace)}-{_source_digest()}", counters)
    for line in lines:
        print(line)
    for problem in problems[:20]:
        print(f"PROBLEM {problem}")
    if len(problems) > 20:
        print(f"PROBLEM ... and {len(problems) - 20} more")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit}
                    for m, (v, unit) in reported.items()},
    }))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        print(done.stdout, end="")
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {done.returncode}",
                  file=sys.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    print(f"{'workload':16s} {'correct':8s} {'failed':>7s}")
    for name, result in results.items():
        print(f"{name:16s} {str(result['correct']):8s} {result['failed']:7d}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
