"""Fig. 3: 8-second power traces per benchmark, 1 ms averaging windows.

The panel means that track Table VI are claims in the ledger
(``test_paper_claims.py``).
"""

import pytest

from repro.analysis.experiments import fig3_power_traces
from repro.power.traces import TraceSynthesizer


def test_fig3_ddr_panel_ranks_stream_ddr_highest(benchmark):
    traces = benchmark(fig3_power_traces, 8.0)
    ddr_means = {workload: groups["ddr"]["mean_w"]
                 for workload, groups in traces.items()}
    assert max(ddr_means, key=ddr_means.get) == "stream_ddr"


def test_fig3_pcie_panel_is_flat_one_watt(benchmark):
    traces = benchmark(fig3_power_traces, 8.0)
    for workload, groups in traces.items():
        assert groups["pcie_pll_io"]["mean_w"] == pytest.approx(1.1, abs=0.08), \
            workload


def test_fig3_synthesis_throughput(benchmark):
    """Time one 8 s / 1 ms trace generation (8000 windows)."""
    synthesizer = TraceSynthesizer()
    trace = benchmark(synthesizer.benchmark_trace, "hpl", "core")
    assert len(trace.power_w) == 8000
