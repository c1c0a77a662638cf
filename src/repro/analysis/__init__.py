"""Analysis layer: regenerate every table and figure of the paper.

* :mod:`repro.analysis.paper` — the paper's reported values, verbatim,
  used as the comparison column everywhere;
* :mod:`repro.analysis.tables` — plain-text table rendering;
* :mod:`repro.analysis.experiments` — one driver function per experiment
  (Tables I–VI, Figures 2–6, the §V-A comparison rows, the §III
  Infiniband status), each returning structured results;
* :mod:`repro.analysis.report` — runs every driver and renders the
  EXPERIMENTS.md paper-vs-measured report;
* :mod:`repro.analysis.validate` — the claims ledger: every paper number
  with its bound, judged by ``repro validate`` and the benchmark harness.
"""

from repro.analysis.experiments import (
    comparison_table,
    fig2_hpl_scaling,
    fig3_power_traces,
    fig4_boot_power,
    fig5_heatmaps,
    fig6_thermal_runaway,
    infiniband_status,
    qe_lax_result,
    table1_software_stack,
    table2_topics,
    table3_stats_metrics,
    table4_hwmon,
    table5_stream,
    table6_power,
)
from repro.analysis.report import generate_experiments_report
from repro.analysis.tables import render_table

__all__ = [
    "comparison_table",
    "fig2_hpl_scaling",
    "fig3_power_traces",
    "fig4_boot_power",
    "fig5_heatmaps",
    "fig6_thermal_runaway",
    "generate_experiments_report",
    "infiniband_status",
    "qe_lax_result",
    "render_table",
    "table1_software_stack",
    "table2_topics",
    "table3_stats_metrics",
    "table4_hwmon",
    "table5_stream",
    "table6_power",
]
