"""Production services running on the master/login nodes.

§IV-A: "We ported on Monte Cimone all the essential services needed for
running HPC workloads in a production environment, namely NFS, LDAP and
the SLURM job scheduler."  SLURM lives in :mod:`repro.slurm`; this package
models the other two plus the environment-modules user environment.
"""
