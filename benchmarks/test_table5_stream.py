"""Table V: STREAM with 4 threads, DDR-resident vs L2-resident.

Each kernel's MB/s and the 15.5% DDR ceiling are claims in the ledger
(``test_paper_claims.py``).
"""

import pytest

from repro.analysis.paper import TABLE_V_DDR_MB_S, TABLE_V_L2_MB_S
from repro.benchmarks.stream import StreamModel


def test_table5_l2_vs_ddr_gap(benchmark):
    """The L2-resident copy outruns the DDR-resident copy ~6×."""
    model = StreamModel()
    results = benchmark(model.table_v)
    gap = (results["STREAM.L2"].kernel_mean("copy")
           / results["STREAM.DDR"].kernel_mean("copy"))
    assert gap == pytest.approx(
        TABLE_V_L2_MB_S["copy"] / TABLE_V_DDR_MB_S["copy"], rel=0.05)
