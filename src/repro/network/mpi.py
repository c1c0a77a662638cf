"""Analytic MPI collective cost model over the cluster topology.

The HPL scaling model (Fig. 2) needs the cost of the communication inside
a distributed LU factorisation: panel broadcasts along process rows, row
swaps (pdlaswp) along columns, and the solve's pipelined exchanges.  This
module provides the standard LogP-flavoured collective costs over the
star-topology GbE network:

* point-to-point:     ``L + m/B``
* broadcast (binomial tree): ``ceil(log2 P) * (L + m/B)``
* allreduce (recursive doubling): ``2*ceil(log2 P) * (L + m/B)``
* ring exchange: ``(P-1) * (L + m/(P*B))``

where ``L`` is end-to-end latency, ``B`` payload bandwidth and ``m`` the
message size.  The model deliberately ignores overlap — upstream HPL on an
unoptimised stack gets essentially no compute/communication overlap, which
is the regime the paper measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional

from repro.events.backoff import ExponentialBackoff
from repro.network.link import LinkDownError
from repro.network.topology import ClusterTopology

__all__ = ["MPICostModel", "MPIRetryPolicy", "MPIRetryError",
           "run_collective_with_retry"]


class MPIRetryError(RuntimeError):
    """A collective exhausted its retry budget over a down link."""


@dataclass
class MPICostModel:
    """Collective costs over a given topology.

    This is the one transfer-time rule of the network model: every
    collective prices its messages through :meth:`point_to_point` (or the
    same link parameters), so a down link raises :class:`LinkDownError`
    and a degraded link slows every message, wherever the cost is asked.

    Parameters
    ----------
    topology:
        The cluster network; per-message latency and payload bandwidth are
        derived from its worst link and switch latency.
    software_overhead_s:
        Per-message MPI software cost on the host CPU; dominated by the
        in-order U74 running the TCP stack (calibrated: 120 µs/message —
        these cores run the whole GbE protocol path in software).
    """

    topology: ClusterTopology
    software_overhead_s: float = 120e-6

    def _link_params(self) -> tuple[float, float]:
        links = self.topology.links.values()
        for link in links:
            if not link.up:
                raise LinkDownError(link.name)
        # Degraded links stay usable but slow the whole collective down —
        # the star topology routes every message over the worst pipe.
        bandwidth = min(l.effective_bandwidth_bytes_per_s for l in links)
        latency = (2 * max(l.latency_s for l in links)
                   + self.topology.switch.port_to_port_latency_s
                   + self.software_overhead_s)
        return latency, bandwidth

    def point_to_point(self, n_bytes: int) -> float:
        """One message between two ranks on different nodes."""
        if n_bytes < 0:
            raise ValueError("negative message size")
        latency, bandwidth = self._link_params()
        return latency + n_bytes / bandwidth

    def broadcast(self, n_bytes: int, n_ranks: int) -> float:
        """Binomial-tree broadcast to ``n_ranks`` participants."""
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if n_ranks == 1:
            return 0.0
        rounds = math.ceil(math.log2(n_ranks))
        return rounds * self.point_to_point(n_bytes)

    def allreduce(self, n_bytes: int, n_ranks: int) -> float:
        """Recursive-doubling allreduce."""
        if n_ranks <= 1:
            return 0.0
        rounds = math.ceil(math.log2(n_ranks))
        return 2 * rounds * self.point_to_point(n_bytes)

    def ring_exchange(self, n_bytes_total: int, n_ranks: int) -> float:
        """Ring-based all-to-all of ``n_bytes_total`` spread over ranks."""
        if n_ranks <= 1:
            return 0.0
        latency, bandwidth = self._link_params()
        chunk = n_bytes_total / n_ranks
        return (n_ranks - 1) * (latency + chunk / bandwidth)

    def scatter(self, n_bytes_total: int, n_ranks: int) -> float:
        """Linear scatter from one root (the scheme LAM-era stacks use)."""
        if n_ranks <= 1:
            return 0.0
        latency, bandwidth = self._link_params()
        per_rank = n_bytes_total / n_ranks
        return (n_ranks - 1) * (latency + per_rank / bandwidth)


@dataclass
class MPIRetryPolicy:
    """Retry-with-timeout semantics for collectives over a flaky network.

    Each failed attempt costs the MPI-level ``timeout_s`` (the send had to
    time out before the stack noticed) plus a backoff delay before the
    next try — the behaviour of TCP-transport MPI when a GbE port flaps.
    """

    timeout_s: float = 1.0
    max_retries: int = 8
    backoff: ExponentialBackoff = field(
        default_factory=lambda: ExponentialBackoff(base_s=0.5, factor=2.0,
                                                   max_s=16.0))

    def __post_init__(self) -> None:
        if self.timeout_s < 0:
            raise ValueError("retry timeout cannot be negative")
        if self.max_retries < 0:
            raise ValueError("retry budget cannot be negative")


def run_collective_with_retry(engine: Any, model: MPICostModel, kind: str,
                              n_bytes: int, n_ranks: int,
                              policy: Optional[MPIRetryPolicy] = None
                              ) -> Generator[Any, Any, Dict[str, float]]:
    """A collective as a simulation process, retrying over flapping links.

    Attempts ``model.<kind>(n_bytes, n_ranks)``; when the topology has a
    down link the attempt costs ``policy.timeout_s`` plus a backoff delay
    (both in simulated time), then retries, up to ``policy.max_retries``
    times.  On success the modelled cost is waited out and, if the run is
    traced and at least one retry happened, a completed
    ``chaos.recovery`` span covering the retry window is recorded —
    fault-injection campaigns assert on it.

    Returns ``{"cost_s", "retries", "waited_s"}``; raises
    :class:`MPIRetryError` when the budget is exhausted.
    """
    if policy is None:
        policy = MPIRetryPolicy()
    collective = getattr(model, kind)
    retries = 0
    waited_s = 0.0
    first_failure_s: Optional[float] = None
    failed_link = ""
    while True:
        try:
            cost_s = collective(n_bytes, n_ranks)
        except LinkDownError as exc:
            if retries >= policy.max_retries:
                raise MPIRetryError(
                    f"{kind} gave up after {retries} retries: {exc}") from exc
            if first_failure_s is None:
                first_failure_s = engine.now
            failed_link = exc.link_name
            delay_s = policy.timeout_s + policy.backoff.delay(retries)
            retries += 1
            waited_s += delay_s
            yield engine.timeout(delay_s)
            continue
        yield engine.timeout(cost_s)
        if first_failure_s is not None and engine.tracer is not None:
            engine.tracer.record(
                f"recovery:link-down:{failed_link}", first_failure_s,
                engine.now, category="chaos.recovery", kind="link-down",
                target=failed_link, component=f"mpi.{kind}",
                retries=retries, waited_s=waited_s)
        return {"cost_s": cost_s, "retries": float(retries),
                "waited_s": waited_s}
