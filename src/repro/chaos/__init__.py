"""Cluster-wide chaos engineering for the simulated Monte Cimone.

Deterministic fault injection with matching graceful-degradation
policies in every layer the paper's production stack has: monitoring
(sensors, MQTT transport), network (GbE links under MPI), services
(NFS/LDAP behind the login node) and compute (thermal node trips through
SLURM's drain→resume).  See ``docs/ARCHITECTURE.md`` ("Chaos & graceful
degradation") for the taxonomy and the invariant-checker contract.

Campaign consumers import :mod:`repro.chaos.scenarios` and
:mod:`repro.chaos.check` directly.
"""
