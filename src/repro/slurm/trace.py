"""Job-trace generation and replay: cluster-operations studies.

A production system like Monte Cimone sees a mixed stream of user jobs;
this module generates seeded synthetic traces shaped like the paper's
workload set (HPL solves, STREAM sweeps, QE-LAX calculations at various
sizes/node counts) and replays them through the scheduler, reporting the
operator metrics (utilisation, wait times, throughput) the ODA framing
cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.power.model import (
    HPL_PROFILE,
    QE_PROFILE,
    STREAM_DDR_PROFILE,
    WorkloadProfile,
)
from repro.slurm.job import Job, JobState
from repro.slurm.scheduler import SlurmController

__all__ = ["TraceEntry", "generate_trace", "replay_trace", "TraceReport"]

#: Workload mix of the synthetic trace: (name, profile, duration range s,
#: node count choices, relative frequency).
_MIX = (
    ("hpl", HPL_PROFILE, (600.0, 3600.0), (1, 2, 4, 8), 0.3),
    ("stream", STREAM_DDR_PROFILE, (120.0, 600.0), (1,), 0.3),
    ("qe", QE_PROFILE, (40.0, 1200.0), (1, 2, 4), 0.4),
)


@dataclass(frozen=True)
class TraceEntry:
    """One job of a synthetic trace."""

    submit_time_s: float
    name: str
    user: str
    n_nodes: int
    duration_s: float
    profile: WorkloadProfile


def generate_trace(n_jobs: int, horizon_s: float, seed: int = 2022,
                   users: tuple[str, ...] = ("alice", "bob", "carol")
                   ) -> List[TraceEntry]:
    """Generate a seeded synthetic job trace.

    Submission times are uniform over the horizon; job classes follow the
    :data:`_MIX` frequencies; everything is deterministic in ``seed``.
    """
    if n_jobs < 1:
        raise ValueError("need at least one job")
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)
    weights = np.array([m[4] for m in _MIX])
    weights = weights / weights.sum()
    entries = []
    submit_times = np.sort(rng.uniform(0.0, horizon_s, n_jobs))
    for i, submit_time in enumerate(submit_times):
        kind = _MIX[rng.choice(len(_MIX), p=weights)]
        name, profile, (d_lo, d_hi), node_choices, _w = kind
        entries.append(TraceEntry(
            submit_time_s=float(submit_time),
            name=f"{name}-{i:03d}",
            user=str(rng.choice(users)),
            n_nodes=int(rng.choice(node_choices)),
            duration_s=float(rng.uniform(d_lo, d_hi)),
            profile=profile))
    return entries


@dataclass
class TraceReport:
    """Operator metrics from one trace replay."""

    n_jobs: int
    completed: int
    failed: int
    makespan_s: float
    mean_wait_s: float
    max_wait_s: float
    node_seconds_used: float
    node_seconds_available: float
    per_user_jobs: Dict[str, int] = field(default_factory=dict)

    @property
    def utilisation(self) -> float:
        """Allocated node-seconds over available node-seconds."""
        if self.node_seconds_available <= 0:
            return 0.0
        return self.node_seconds_used / self.node_seconds_available


def replay_trace(controller: SlurmController, trace: List[TraceEntry],
                 guard_s: float = 1e7) -> TraceReport:
    """Replay a trace through a controller and collect the report.

    Submissions are scheduled at their trace times on the controller's
    engine; the engine then runs until every job is terminal.
    """
    if not trace:
        raise ValueError("empty trace")
    engine = controller.engine
    jobs: List[Job] = []

    start_time = engine.now
    for entry in trace:
        def submit(entry=entry):
            jobs.append(controller.submit(
                name=entry.name, user=entry.user, n_nodes=entry.n_nodes,
                duration_s=entry.duration_s, profile=entry.profile))

        engine.call_at(start_time + entry.submit_time_s, submit)

    guard = engine.now + guard_s
    # Terminal states are final, so the jobs before ``settled`` (in
    # submission order) stay terminal and are never looked at again.
    settled = 0
    while True:
        if not engine.queue_depth:
            break
        if engine.peek() > guard:
            raise TimeoutError("trace replay guard expired")
        engine.step()
        if len(jobs) == len(trace):
            while settled < len(jobs) and jobs[settled].state.is_terminal:
                settled += 1
            if settled == len(jobs):
                break

    end_time = max((job.end_time_s or engine.now) for job in jobs)
    waits = [job.wait_time_s or 0.0 for job in jobs]
    n_cluster_nodes = sum(len(p.nodes) for p in controller.partitions.values())
    used = sum((job.elapsed_s or 0.0) * len(job.allocated_nodes)
               for job in jobs)
    per_user: Dict[str, int] = {}
    for job in jobs:
        per_user[job.user] = per_user.get(job.user, 0) + 1
    return TraceReport(
        n_jobs=len(jobs),
        completed=sum(j.state is JobState.COMPLETED for j in jobs),
        failed=sum(j.state in (JobState.FAILED, JobState.NODE_FAIL)
                   for j in jobs),
        makespan_s=end_time - start_time,
        mean_wait_s=sum(waits) / len(waits),
        max_wait_s=max(waits),
        node_seconds_used=used,
        node_seconds_available=(end_time - start_time) * n_cluster_nodes,
        per_user_jobs=per_user)
