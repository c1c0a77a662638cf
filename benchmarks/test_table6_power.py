"""Table VI: per-rail power for every workload column plus boot R1/R2.

Every rail and every column total is a claim in the ledger
(``test_paper_claims.py``), as are the §I idle and loaded node powers.
"""

from repro.analysis.experiments import table6_power


def test_table6_workload_ordering(benchmark):
    """HPL is the hungriest, idle the least; STREAM.DDR stresses ddr_mem."""
    table = benchmark(table6_power)
    totals = {column: sum(v[0] for v in rails.values())
              for column, rails in table.items()
              if not column.startswith("boot")}
    assert max(totals, key=totals.get) == "hpl"
    assert min(totals, key=totals.get) == "idle"
    ddr_mem = {column: rails["ddr_mem"][0] for column, rails in table.items()
               if not column.startswith("boot")}
    assert max(ddr_mem, key=ddr_mem.get) == "stream_ddr"
