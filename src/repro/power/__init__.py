"""Power models for the Monte Cimone node.

Three layers:

* :mod:`repro.power.model` — the calibrated per-rail power model.  Its
  structure follows the paper's own decomposition of the core rail into
  leakage (0.984 W), clock-tree + dynamic (1.577 W) and OS baseline
  (0.514 W), and its activity slopes are calibrated so each Table VI column
  is reproduced by the corresponding workload profile.
* :mod:`repro.power.boot` — the boot-phase power sequence behind Fig. 4
  (regions R1/R2/R3).
* :mod:`repro.power.traces` — synthesis of the 1 ms-window power traces of
  Fig. 3 and Fig. 4.
"""
