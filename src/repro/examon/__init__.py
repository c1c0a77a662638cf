"""ExaMon: the Operational Data Analytics stack ported to Monte Cimone.

§IV-B: ExaMon consists of sampling plugins on the compute nodes, an MQTT
broker for transport and a database for storage, with Grafana and a
RESTful API on top.  This package implements the whole vertical:

* :mod:`repro.examon.topics` — the Table II topic schema plus MQTT
  wildcard matching (``+``/``#``);
* :mod:`repro.examon.payload` — the ``<value>;<timestamp>`` payload codec;
* :mod:`repro.examon.broker` — a topic-tree MQTT broker;
* :mod:`repro.examon.tsdb` — the time-series store with range queries and
  window aggregation;
* :mod:`repro.examon.plugins` — pmu_pub (2 Hz per-core performance
  counters through perf_events) and stats_pub (0.2 Hz OS statistics from
  procfs/sysfs, Table III);
* :mod:`repro.examon.rest` — the batch-analysis HTTP-style query facade;
* :mod:`repro.examon.dashboard` — Grafana-style views: the Fig. 5 HPL
  heatmaps and the Fig. 6 thermal timeline;
* :mod:`repro.examon.deployment` — wiring onto a
  :class:`~repro.cluster.cluster.MonteCimoneCluster`.
"""
