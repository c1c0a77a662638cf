"""Bridge from benchmark models to schedulable jobs.

The workload models (:mod:`repro.benchmarks`) predict runtime and
throughput; the scheduler needs (name, profile, duration).  These helpers
produce consistent job requests so that examples and tests never hand-pick
durations that contradict the performance models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchmarks.qe_lax import QELaxConfig, QELaxModel
from repro.hardware.specs import MONTE_CIMONE_NODE, NodeSpec
from repro.power.model import QE_PROFILE, WorkloadProfile

__all__ = ["JobRequest", "qe_lax_job"]


@dataclass(frozen=True)
class JobRequest:
    """Everything the scheduler needs to run one benchmark as a job."""

    name: str
    n_nodes: int
    duration_s: float
    profile: WorkloadProfile


def qe_lax_job(config: QELaxConfig | None = None,
               node: NodeSpec = MONTE_CIMONE_NODE) -> JobRequest:
    """A QE-LAX job with the model's 37.4 s duration at the paper size."""
    config = config if config is not None else QELaxConfig()
    result = QELaxModel(node=node).run(config)
    return JobRequest(name=f"qe-lax-{config.n}", n_nodes=config.n_nodes,
                      duration_s=result.runtime_s.mean, profile=QE_PROFILE)
