"""Benchmark workloads: HPL, STREAM and QuantumESPRESSO LAX.

Each benchmark exists in two forms:

* a **workload model** that predicts runtime/throughput on a
  :class:`~repro.hardware.specs.NodeSpec` (optionally across nodes through
  the MPI cost model) — this is what regenerates the paper's numbers; and
* a **real micro-kernel** (:mod:`repro.benchmarks.kernels`) implementing
  the same algorithm with numpy — used by the test-suite to validate that
  the modelled algorithm is the actual algorithm (LU really factorises,
  STREAM kernels really move the bytes they claim, the LAX driver really
  diagonalises) and by pytest-benchmark for host-side timing.

Run-to-run spread is modelled by :class:`repro.benchmarks.base.RunStatistics`
with seeded Gaussian jitter over the same 10 repetitions the paper used.
"""
