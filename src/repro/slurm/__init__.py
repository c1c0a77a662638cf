"""SLURM-style workload manager.

§IV-A: SLURM is one of the essential production services ported to the
RISC-V cluster.  This package implements the scheduling substrate the
paper's experiments ran under:

* :mod:`repro.slurm.job` — job records and their state machine;
* :mod:`repro.slurm.partition` — partitions and per-node scheduler state;
* :mod:`repro.slurm.scheduler` — the controller: FIFO queue with
  conservative backfill, node allocation, time limits, node-failure
  handling (a thermal trip drains the node and fails the job, which is
  exactly what happened to node 7's HPL run in Fig. 6);
* :mod:`repro.slurm.api` — an sbatch/srun/squeue/sinfo-shaped facade.
"""
