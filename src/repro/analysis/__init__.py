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
