"""Cluster interconnect models.

Monte Cimone's production interconnect is the on-board gigabit Ethernet
through a top-of-rack switch; two nodes additionally carry Infiniband FDR
HCAs in the partially-working state §III describes.  This package provides:

* :mod:`repro.network.link` — per-port latency/bandwidth parameters and
  link faults (down, degraded).
* :mod:`repro.network.topology` — the star topology through the GbE switch
  plus the two-node IB island.
* :mod:`repro.network.mpi` — an analytic MPI cost model (point-to-point,
  broadcast, allreduce, ring exchange) used by the HPL scaling model; the
  one place a message's transfer time is computed.
* :mod:`repro.network.infiniband` — fabric-level wrapper over the HCA state
  machine: ibping works, RDMA raises.
"""
