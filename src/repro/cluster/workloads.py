"""Bridge from benchmark models to schedulable jobs.

The workload models (:mod:`repro.benchmarks`) predict runtime and
throughput; the scheduler needs (name, profile, duration).  These helpers
produce consistent job requests so that examples and tests never hand-pick
durations that contradict the performance models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.benchmarks.hpl import HPLConfig, HPLModel
from repro.benchmarks.qe_lax import QELaxConfig, QELaxModel
from repro.benchmarks.stream import StreamConfig, StreamModel
from repro.hardware.specs import MONTE_CIMONE_NODE, NodeSpec
from repro.power.model import (
    HPL_PROFILE,
    QE_PROFILE,
    STREAM_DDR_PROFILE,
    STREAM_L2_PROFILE,
    WorkloadProfile,
)

__all__ = ["JobRequest", "hpl_job", "stream_job", "qe_lax_job"]


@dataclass(frozen=True)
class JobRequest:
    """Everything the scheduler needs to run one benchmark as a job."""

    name: str
    n_nodes: int
    duration_s: float
    profile: WorkloadProfile


def hpl_job(config: HPLConfig | None = None,
            node: NodeSpec = MONTE_CIMONE_NODE) -> JobRequest:
    """An HPL job whose duration comes from the HPL performance model."""
    config = config if config is not None else HPLConfig()
    result = HPLModel(node=node).run(config)
    return JobRequest(name=f"hpl-n{config.n}", n_nodes=config.n_nodes,
                      duration_s=result.runtime_s.mean, profile=HPL_PROFILE)


def stream_job(config: StreamConfig | None = None, n_iterations: int = 10,
               node: NodeSpec = MONTE_CIMONE_NODE) -> JobRequest:
    """A STREAM job: duration derived from the bandwidth model.

    Each iteration streams all four kernels over the working set; the
    L2-resident variant selects the L2 activity profile.
    """
    config = config if config is not None else StreamConfig()
    result = StreamModel(node=node).run(config)
    seconds_per_iteration = sum(
        config.total_bytes / (stats.mean * 1e6)
        for stats in result.bandwidth_mb_s.values())
    profile = STREAM_L2_PROFILE if result.regime == "l2" else STREAM_DDR_PROFILE
    return JobRequest(name=f"stream-{result.regime}", n_nodes=1,
                      duration_s=seconds_per_iteration * n_iterations,
                      profile=profile)


def qe_lax_job(config: QELaxConfig | None = None,
               node: NodeSpec = MONTE_CIMONE_NODE) -> JobRequest:
    """A QE-LAX job with the model's 37.4 s duration at the paper size."""
    config = config if config is not None else QELaxConfig()
    result = QELaxModel(node=node).run(config)
    return JobRequest(name=f"qe-lax-{config.n}", n_nodes=config.n_nodes,
                      duration_s=result.runtime_s.mean, profile=QE_PROFILE)
