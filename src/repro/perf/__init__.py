"""Performance-analysis layer: machine comparison, scaling, ASCII plots.

* :mod:`repro.perf.machines` — the three-machine comparison of §V-A
  (Monte Cimone vs Marconi100 vs Armida under identical upstream-stack
  boundary conditions).
* :mod:`repro.perf.scaling` — strong-scaling metrics (speedup, parallel
  efficiency, fraction-of-linear) used for Fig. 2.
* :mod:`repro.perf.plots` — ASCII renderings of the Fig. 2 curve and of
  time series for the report.
"""

from repro.perf.machines import COMPARISON_MACHINES, MachineComparison, utilisation_table
from repro.perf.scaling import ScalingPoint, strong_scaling_table

__all__ = [
    "COMPARISON_MACHINES",
    "MachineComparison",
    "ScalingPoint",
    "strong_scaling_table",
    "utilisation_table",
]
