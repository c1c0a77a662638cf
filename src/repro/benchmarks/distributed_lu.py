"""Executed distributed LU: real numerics + simulated communication.

The HPL *model* (:mod:`repro.benchmarks.hpl`) predicts times analytically.
This module complements it with an actually-executed distributed solver:
a 1-D column-block-cyclic right-looking LU with partial pivoting, where

* every rank's compute really happens (numpy, on real sub-matrices),
* inter-rank traffic is charged to the :class:`~repro.network.mpi
  .MPICostModel`, and per-rank compute time is charged at the node's
  calibrated attained rate,

so one run produces both a *numerically-verified solution* (checked
against ``numpy.linalg.solve`` and HPL's residual criterion) and a
*simulated wall-clock* that follows the same cost structure as the
analytic model.  The test-suite cross-validates the two on common
configurations — the strongest internal-consistency check the
reproduction has.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hardware.specs import MONTE_CIMONE_NODE, NodeSpec
from repro.network.mpi import MPICostModel
from repro.network.topology import ClusterTopology

__all__ = ["DistributedLU", "DistributedLUResult"]


@dataclass(frozen=True)
class DistributedLUResult:
    """Outcome of one executed distributed solve."""

    x: np.ndarray
    simulated_time_s: float
    compute_time_s: float
    comm_time_s: float
    gflops: float
    n_ranks: int


class DistributedLU:
    """1-D column-block-cyclic LU over simulated ranks.

    Parameters
    ----------
    n_ranks:
        Simulated MPI ranks (one per node; intra-node parallelism is
        folded into the attained rate like the analytic model does).
    nb:
        Column block width.
    node:
        Machine descriptor supplying the attained compute rate
        (peak × hpl_fraction).
    """

    def __init__(self, n_ranks: int = 4, nb: int = 8,
                 node: NodeSpec = MONTE_CIMONE_NODE,
                 topology: ClusterTopology | None = None) -> None:
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if nb < 1:
            raise ValueError("block width must be >= 1")
        self.n_ranks = n_ranks
        self.nb = nb
        self.node = node
        if topology is None and n_ranks > 1:
            topology = ClusterTopology(f"rank{r}" for r in range(n_ranks))
        self.mpi = MPICostModel(topology) if topology is not None else None
        self._attained_flops = node.peak_flops * node.hpl_fraction

    # -- distribution ---------------------------------------------------------
    def owner_of_block(self, block_index: int) -> int:
        """Rank owning a column block (cyclic distribution)."""
        return block_index % self.n_ranks

    # -- execution -------------------------------------------------------------
    def solve(self, a: np.ndarray, b: np.ndarray) -> DistributedLUResult:
        """Factorise and solve ``A x = b``, accounting simulated time.

        The matrix is logically partitioned into ``nb``-wide column
        blocks distributed cyclically.  Compute on different ranks within
        one panel step overlaps (the step costs the *maximum* rank time),
        matching the bulk-synchronous structure of HPL.
        """
        a = np.array(a, dtype=np.float64, copy=True)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError("matrix must be square")
        piv = np.arange(n)
        compute_time = 0.0
        comm_time = 0.0

        n_blocks = (n + self.nb - 1) // self.nb
        for k in range(n_blocks):
            col0, col1 = k * self.nb, min((k + 1) * self.nb, n)
            width = col1 - col0
            rows_below = n - col0

            # -- panel factorisation on the owner rank ----------------------
            for j in range(col0, col1):
                p = j + int(np.argmax(np.abs(a[j:, j])))
                if a[p, j] == 0.0:
                    raise np.linalg.LinAlgError(f"singular at column {j}")
                if p != j:
                    a[[j, p], :] = a[[p, j], :]
                    piv[j], piv[p] = piv[p], piv[j]
                a[j + 1:, j] /= a[j, j]
                if j + 1 < col1:
                    a[j + 1:, j + 1:col1] -= np.outer(a[j + 1:, j],
                                                      a[j, j + 1:col1])
            panel_flops = 2.0 * rows_below * width * width / 2.0
            compute_time += panel_flops / self._attained_flops

            # -- broadcast panel + pivots to the other ranks ------------------
            if self.mpi is not None and self.n_ranks > 1:
                panel_bytes = rows_below * width * 8 + width * 8
                comm_time += self.mpi.broadcast(panel_bytes, self.n_ranks)

            if col1 == n:
                break

            # -- trailing update, partitioned over owning ranks ---------------
            # Each rank updates its own trailing blocks; the step costs the
            # busiest rank's time.
            rank_flops = [0.0] * self.n_ranks
            for trailing in range(k + 1, n_blocks):
                t0, t1 = trailing * self.nb, min((trailing + 1) * self.nb, n)
                owner = self.owner_of_block(trailing)
                # forward substitution with unit L11 (cascading rows) ...
                for j in range(col0, col1 - 1):
                    a[j + 1:col1, t0:t1] -= np.outer(a[j + 1:col1, j],
                                                     a[j, t0:t1])
                # ... then the rank's GEMM update of its trailing block.
                a[col1:, t0:t1] -= a[col1:, col0:col1] @ a[col0:col1, t0:t1]
                rank_flops[owner] += 2.0 * (n - col1) * width * (t1 - t0)
            compute_time += max(rank_flops) / self._attained_flops

        # -- triangular solves (on the root rank) ----------------------------
        x = np.asarray(b, dtype=np.float64)[piv].copy()
        for i in range(1, n):
            x[i] -= a[i, :i] @ x[:i]
        for i in range(n - 1, -1, -1):
            x[i] = (x[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
        solve_flops = 2.0 * n * n
        compute_time += solve_flops / self._attained_flops

        total_flops = (2.0 / 3.0) * n ** 3 + 2.0 * n ** 2
        total_time = compute_time + comm_time
        return DistributedLUResult(
            x=x, simulated_time_s=total_time, compute_time_s=compute_time,
            comm_time_s=comm_time,
            gflops=total_flops / total_time / 1e9,
            n_ranks=self.n_ranks)
