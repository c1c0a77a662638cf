"""Cluster assembly: nodes, services, the full Monte Cimone machine.

* :mod:`repro.cluster.node` — a compute node: one HiFive Unmatched board
  plus its OS lifecycle (boot phases R1/R2/R3, workload execution, thermal
  trip shutdown) and the procfs/sysfs views monitoring reads.
* :mod:`repro.cluster.procfs` — simulated /proc (loadavg, stat, meminfo,
  diskstats, net/dev) feeding the Table III metric sources.
* :mod:`repro.cluster.cluster` — the eight-node machine with login and
  master nodes, GbE network, NFS/LDAP services and ExaMon hooks.
* :mod:`repro.cluster.services` — NFS, LDAP and environment-modules
  service models.
"""
