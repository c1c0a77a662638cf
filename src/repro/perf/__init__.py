"""Performance-analysis layer: machine comparison, scaling, ASCII plots.

* :mod:`repro.perf.machines` — the three-machine comparison of §V-A
  (Monte Cimone vs Marconi100 vs Armida under identical upstream-stack
  boundary conditions).
* :mod:`repro.perf.scaling` — strong-scaling metrics (speedup, parallel
  efficiency, fraction-of-linear) used for Fig. 2.
* :mod:`repro.perf.plots` — ASCII renderings of the Fig. 2 curve and of
  time series for the report.
"""
