"""Job records and the SLURM job state machine."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from repro.events.backoff import ExponentialBackoff
from repro.power.model import IDLE_PROFILE, WorkloadProfile

__all__ = ["Job", "JobAttempt", "JobState"]


class JobState(Enum):
    """The SLURM states the model distinguishes."""

    PENDING = "PD"
    RUNNING = "R"
    COMPLETED = "CD"
    FAILED = "F"
    CANCELLED = "CA"
    TIMEOUT = "TO"
    NODE_FAIL = "NF"
    #: ``--requeue`` semantics: the job hit NODE_FAIL, sits out a backoff
    #: window, and returns to PENDING for another attempt.
    REQUEUED = "RQ"

    @property
    def is_terminal(self) -> bool:
        """Whether the job has left the system."""
        return self not in (JobState.PENDING, JobState.RUNNING,
                            JobState.REQUEUED)


@dataclass(frozen=True)
class JobAttempt:
    """One execution attempt of a job, as recorded by accounting.

    A job without requeues has exactly one attempt; a ``--requeue`` job
    that survived node failures carries one record per attempt, so sacct
    can show the full retry history (real SLURM's ``sacct --duplicates``).
    """

    attempt: int                 # 1-based attempt number
    nodes: Tuple[str, ...]       # allocation this attempt ran on
    start_time_s: float
    end_time_s: float
    state: JobState              # how this attempt ended
    reason: str
    #: Backoff until the next attempt becomes eligible (0 for the last one).
    backoff_s: float = 0.0

    @property
    def elapsed_s(self) -> float:
        """Wall time of this attempt."""
        return self.end_time_s - self.start_time_s


@dataclass
class Job:
    """One batch job.

    ``profile`` describes the workload's hardware activity (it drives the
    power/thermal/monitoring substrates while the job runs); ``duration_s``
    is the modelled execution time on the requested allocation.
    """

    job_id: int
    name: str
    user: str
    n_nodes: int
    duration_s: float
    time_limit_s: float = float("inf")
    partition: str = "compute"
    profile: WorkloadProfile = IDLE_PROFILE
    state: JobState = JobState.PENDING
    #: Set by :meth:`SlurmController.cancel` on a running or requeued job;
    #: the run process observes it at its next execution slice and winds
    #: the job down cleanly.
    cancel_requested: bool = False
    #: ``sbatch --requeue``: on NODE_FAIL the job is retried (bounded by
    #: ``max_requeues``) after an exponential backoff instead of failing.
    requeue: bool = False
    max_requeues: int = 3
    #: Base of the requeue backoff: a job that lost attempt *n* waits
    #: ``requeue_backoff.delay(n - 1)``, i.e. ``requeue_backoff_s *
    #: 2**(n-1)``, before re-entering the queue.
    requeue_backoff_s: float = 30.0
    #: The :class:`ExponentialBackoff` (factor 2, uncapped, no jitter) that
    #: computes those delays; it rejects a base that is not positive.
    requeue_backoff: ExponentialBackoff = field(init=False, repr=False,
                                                compare=False)
    #: Number of times the job has been requeued so far.
    restart_count: int = 0
    #: Per-attempt accounting records (including the final attempt).
    attempts: List[JobAttempt] = field(default_factory=list)
    submit_time_s: float = 0.0
    start_time_s: Optional[float] = None
    end_time_s: Optional[float] = None
    allocated_nodes: List[str] = field(default_factory=list)
    exit_reason: str = ""

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("a job needs at least one node")
        if self.duration_s < 0:
            raise ValueError("negative duration")
        if self.time_limit_s <= 0:
            raise ValueError("time limit must be positive")
        if self.max_requeues < 0:
            raise ValueError("max_requeues cannot be negative")
        self.requeue_backoff = ExponentialBackoff(
            base_s=self.requeue_backoff_s, factor=2.0, max_s=math.inf)

    @property
    def wait_time_s(self) -> Optional[float]:
        """Queue wait, once started."""
        if self.start_time_s is None:
            return None
        return self.start_time_s - self.submit_time_s

    @property
    def elapsed_s(self) -> Optional[float]:
        """Wall time used, once finished."""
        if self.start_time_s is None or self.end_time_s is None:
            return None
        return self.end_time_s - self.start_time_s

    def squeue_row(self) -> str:
        """One squeue-format line."""
        nodes = ",".join(self.allocated_nodes) if self.allocated_nodes else "(none)"
        return (f"{self.job_id:>8} {self.partition:>9} {self.name:>12.12} "
                f"{self.user:>8} {self.state.value:>2} {self.n_nodes:>5} {nodes}")
