"""Per-job energy accounting — energy-to-solution from the rail integrals.

The shunt-resistor harness integrates energy per rail
(:attr:`~repro.hardware.rails.PowerRail.energy_j`); this module snapshots
those integrals at job start/end to attribute energy to jobs, giving the
energy-to-solution metric HPC operators (and the paper's ODA framing)
care about.  Wire :class:`JobEnergyAccounting` to a
:class:`~repro.slurm.scheduler.SlurmController` and read the ledger after
the runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.node import ComputeNode
from repro.slurm.job import Job
from repro.slurm.scheduler import SlurmController

__all__ = ["JobEnergyRecord", "JobEnergyAccounting"]


@dataclass(frozen=True)
class JobEnergyRecord:
    """Energy attributed to one finished job."""

    job_id: int
    name: str
    user: str
    n_nodes: int
    elapsed_s: float
    energy_j: float
    per_rail_j: Dict[str, float]

    @property
    def mean_power_w(self) -> float:
        """Average allocated-node power over the job."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.energy_j / self.elapsed_s


class JobEnergyAccounting:
    """Attributes rail energy to jobs via start/end snapshots."""

    def __init__(self, controller: SlurmController) -> None:
        self.controller = controller
        self._start_snapshots: Dict[int, Dict[str, Dict[str, float]]] = {}
        self.ledger: List[JobEnergyRecord] = []
        controller.on_job_end.append(self._on_job_end)
        self._wrap_start()

    # -- wiring -------------------------------------------------------------
    def _wrap_start(self) -> None:
        original_start = self.controller._start

        def start_with_snapshot(job, partition):
            original_start(job, partition)
            self._start_snapshots[job.job_id] = self._snapshot(job)

        self.controller._start = start_with_snapshot

    def _bound_nodes(self, job: Job) -> Dict[str, ComputeNode]:
        return {hostname: self.controller.compute_nodes[hostname]
                for hostname in job.allocated_nodes
                if hostname in self.controller.compute_nodes}

    def _snapshot(self, job: Job) -> Dict[str, Dict[str, float]]:
        nodes = self._bound_nodes(job)
        for node in nodes.values():
            node.settle()
        return {hostname: {rail.name: rail.energy_j
                           for rail in node.board.rails}
                for hostname, node in nodes.items()}

    def _on_job_end(self, job: Job) -> None:
        start = self._start_snapshots.pop(job.job_id, None)
        if start is None:
            return
        # Force the integrals up to the end timestamp before reading.
        for node in self._bound_nodes(job).values():
            node.sync_to(self.controller.engine.now)
        end = self._snapshot(job)
        per_rail: Dict[str, float] = {}
        for hostname, rails in end.items():
            for rail_name, energy in rails.items():
                delta = energy - start.get(hostname, {}).get(rail_name, 0.0)
                per_rail[rail_name] = per_rail.get(rail_name, 0.0) + delta
        self.ledger.append(JobEnergyRecord(
            job_id=job.job_id, name=job.name, user=job.user,
            n_nodes=len(job.allocated_nodes),
            elapsed_s=job.elapsed_s or 0.0,
            energy_j=sum(per_rail.values()),
            per_rail_j=per_rail))

    # -- queries ------------------------------------------------------------
    def record_for(self, job_id: int) -> Optional[JobEnergyRecord]:
        """The ledger entry for one job, or None if not finished/tracked."""
        for record in self.ledger:
            if record.job_id == job_id:
                return record
        return None

    def total_energy_j(self, user: Optional[str] = None) -> float:
        """Total attributed energy, optionally for one user."""
        return sum(record.energy_j for record in self.ledger
                   if user is None or record.user == user)
