"""Fig. 4: the boot power trace.

The region averages and the leakage/dynamic/OS decomposition are claims in
the ledger (``test_paper_claims.py``).
"""

import pytest

from repro.analysis.experiments import fig4_boot_power
from repro.power.traces import TraceSynthesizer


def test_fig4_80_second_trace_staircase(benchmark):
    """The full Fig. 4 trace: off → R1 → R2 → R3 power staircase."""
    trace = benchmark(TraceSynthesizer().boot_trace, "core", 80.0)

    def mean_between(lo, hi):
        mask = (trace.times_s >= lo) & (trace.times_s < hi)
        return float(trace.power_w[mask].mean())

    off, r1 = mean_between(0, 4), mean_between(5, 10)
    r2, r3 = mean_between(11, 25), mean_between(45, 80)
    assert off < r1 < r2 < r3
    # The noisy R1 plateau stays within 0.04 W of the region average it is
    # drawn around (whose distance from the paper is a ledger claim).
    assert r1 == pytest.approx(fig4_boot_power()["r1_core_w"], abs=0.04)
