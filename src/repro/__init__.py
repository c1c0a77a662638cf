"""Monte Cimone reproduction: a simulated RISC-V HPC cluster and its stack.

This library reproduces *Monte Cimone: Paving the Road for the First
Generation of RISC-V High-Performance Computers* (Bartolini et al., SOCC
2022) as a fully simulated system — the hardware is replaced by calibrated
models (see DESIGN.md), while every software-stack layer the paper relies
on (SLURM-style scheduling, Spack-style package management, the ExaMon
monitoring vertical, NFS/LDAP/modules) is implemented from scratch.

Quick tour
----------
>>> from repro.cluster.cluster import MonteCimoneCluster        # the machine
>>> from repro.examon.deployment import ExamonDeployment       # monitoring
>>> from repro.slurm.api import SlurmAPI                       # batch system
>>> from repro.benchmarks.hpl import HPLModel                  # workloads
>>> from repro.benchmarks.stream import StreamModel
>>> from repro.analysis.report import generate_experiments_report  # the paper

Subpackages
-----------
``events``      deterministic discrete-event simulation kernel
``hardware``    the SiFive U740 node: cores, caches, DDR, rails, sensors
``power``       calibrated per-rail power models (Table VI, Fig. 3/4)
``thermal``     enclosure airflow + RC thermal models (Fig. 6)
``network``     GbE star, MPI cost model (Fig. 2), partial Infiniband
``cluster``     node lifecycle, NFS/LDAP/modules, full machine
``slurm``       FIFO+backfill workload manager
``spack``       spec language, concretizer, installer (Table I)
``examon``      MQTT broker, plugins, time-series DB, dashboards
``benchmarks``  HPL / STREAM / QE-LAX models + real numpy kernels
``perf``        machine comparison, scaling metrics, ASCII plots
``analysis``    per-experiment drivers and the EXPERIMENTS.md generator
``chaos``       fault injectors and the recovery scenarios
``obs``         span tracing and metrics of the simulation itself
``lint``        simlint, the determinism and engine-discipline checker
"""

__version__ = "1.0.0"
