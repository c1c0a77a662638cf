#!/usr/bin/env python3
"""A day in the life of the cluster: trace replay + operator report.

Generates a seeded synthetic stream of user jobs shaped like the paper's
workload set (HPL / STREAM / QE-LAX at mixed sizes), replays it through
the SLURM controller on the simulated machine with energy accounting
attached, and prints the operator view: utilisation, wait times, per-user
activity, the sacct energy ledger, and the exported Grafana dashboards.

Run with::

    python examples/cluster_operations.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.tables import render_table
from repro.cluster.cluster import MonteCimoneCluster
from repro.examon.grafana import build_cluster_dashboard, export_dashboard
from repro.power.energy import JobEnergyAccounting
from repro.slurm.accounting import render_sacct
from repro.slurm.trace import generate_trace, replay_trace
from repro.thermal.enclosure import EnclosureConfig


def main() -> None:
    print("== Cluster operations study ==")
    cluster = MonteCimoneCluster(
        enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    accounting = JobEnergyAccounting(cluster.slurm)

    trace = generate_trace(n_jobs=24, horizon_s=4 * 3600.0, seed=7)
    print(f"generated {len(trace)} jobs over a 4 h submission window")
    print(render_table(
        ["t submit", "job", "user", "nodes", "duration s"],
        [(f"{e.submit_time_s:7.0f}", e.name, e.user, e.n_nodes,
          f"{e.duration_s:6.0f}") for e in trace[:8]]
        , title="first 8 entries:"))

    print("\nreplaying through the scheduler...")
    report = replay_trace(cluster.slurm, trace)

    print(f"\n-- operator report --")
    print(f"  jobs:        {report.n_jobs} "
          f"({report.completed} completed, {report.failed} failed)")
    print(f"  makespan:    {report.makespan_s / 3600:.2f} h")
    print(f"  utilisation: {report.utilisation * 100:.1f}% of node-hours")
    print(f"  wait times:  mean {report.mean_wait_s:.0f} s, "
          f"max {report.max_wait_s:.0f} s")
    print(f"  per user:    " + ", ".join(
        f"{user}: {count}" for user, count in
        sorted(report.per_user_jobs.items())))

    print("\n-- energy ledger (sacct) --")
    print(render_sacct(cluster.slurm, accounting))
    total_kwh = accounting.total_energy_j() / 3.6e6
    print(f"  total attributed energy: {total_kwh * 1000:.1f} Wh")

    dashboard = build_cluster_dashboard(list(cluster.nodes))
    blob = export_dashboard(dashboard)
    print(f"\n-- Grafana dashboard export --")
    print(f"  '{dashboard['title']}': {len(dashboard['panels'])} panels, "
          f"{len(blob)} bytes of JSON")


if __name__ == "__main__":
    main()
