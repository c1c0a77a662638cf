"""User-facing SLURM command facade.

Wraps :class:`~repro.slurm.scheduler.SlurmController` in the command
shapes users type — ``sbatch``, ``srun``, ``squeue``, ``sinfo`` — so
the examples read like a session on the real login node.  Accounting is
:func:`repro.slurm.accounting.render_sacct`.
"""

from __future__ import annotations

from typing import Optional

from repro.events.engine import Engine
from repro.power.model import WorkloadProfile
from repro.slurm.batch_script import parse_batch_script
from repro.slurm.job import Job
from repro.slurm.scheduler import SlurmController

__all__ = ["SlurmAPI"]


class SlurmAPI:
    """The login node's view of the batch system."""

    def __init__(self, controller: SlurmController) -> None:
        self.controller = controller

    @property
    def engine(self) -> Engine:
        """The simulation engine driving the controller."""
        return self.controller.engine

    def sbatch(self, name: str, user: str, nodes: int, duration_s: float,
               time_s: Optional[float] = None, partition: Optional[str] = None,
               profile: Optional[WorkloadProfile] = None,
               requeue: bool = False, max_requeues: int = 3,
               requeue_backoff_s: float = 30.0) -> int:
        """Submit a batch job; returns the job id (like ``sbatch``'s stdout).

        ``requeue`` is ``--requeue``: retry the job when a node failure
        kills it, up to ``max_requeues`` times, each retry delayed by the
        job's :class:`~repro.events.backoff.ExponentialBackoff` (base
        ``requeue_backoff_s``, doubling per restart).
        """
        job = self.controller.submit(
            name=name, user=user, n_nodes=nodes, duration_s=duration_s,
            time_limit_s=time_s, partition=partition, profile=profile,
            requeue=requeue, max_requeues=max_requeues,
            requeue_backoff_s=requeue_backoff_s)
        return job.job_id

    def sbatch_script(self, script_text: str, user: str, duration_s: float,
                      profile: Optional[WorkloadProfile] = None) -> int:
        """Submit a ``#SBATCH``-directive shell script, like real sbatch.

        ``duration_s`` is the modelled execution time of the script's
        payload (the simulation cannot execute shell commands); the
        directives control name, node count, time limit and partition.
        """
        script = parse_batch_script(script_text)
        job = self.controller.submit(
            name=script.job_name, user=user, n_nodes=script.n_nodes,
            duration_s=duration_s, time_limit_s=script.time_limit_s,
            partition=script.partition, profile=profile)
        return job.job_id

    def srun(self, name: str, user: str, nodes: int, duration_s: float,
             profile: Optional[WorkloadProfile] = None,
             limit_s: float = 1e9) -> Job:
        """Blocking run: submit, then advance the simulation to completion."""
        job = self.controller.submit(
            name=name, user=user, n_nodes=nodes, duration_s=duration_s,
            profile=profile)
        guard = self.engine.now + limit_s
        while not job.state.is_terminal:
            if self.engine.peek() > guard:
                raise TimeoutError(f"srun guard expired for job {job.job_id}")
            self.engine.step()
        return job

    def squeue(self) -> str:
        """The queue listing."""
        return "\n".join(self.controller.squeue())

    def sinfo(self) -> str:
        """The partition/node listing."""
        return "\n".join(self.controller.sinfo())

    def wait_all(self, limit_s: float = 1e9) -> None:
        """Advance the simulation until no job is pending or running."""
        guard = self.engine.now + limit_s
        while any(not j.state.is_terminal for j in self.controller.jobs.values()):
            if self.engine.peek() > guard:
                raise TimeoutError("wait_all guard expired")
            self.engine.step()
