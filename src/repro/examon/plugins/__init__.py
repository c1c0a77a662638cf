"""ExaMon sampling plugins.

Two plugins were "specifically developed/adapted for this project and
installed on the compute nodes" (§IV-B):

* :mod:`repro.examon.plugins.pmu_pub` — per-core performance counters via
  perf_events, 2 Hz;
* :mod:`repro.examon.plugins.stats_pub` — OS statistics from procfs/sysfs
  (Table III), 0.2 Hz.
"""
