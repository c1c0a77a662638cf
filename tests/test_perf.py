"""Tests for the performance-analysis layer: scaling, machines."""

import pytest

from repro.benchmarks.hpl import HPLModel
from repro.hardware.specs import MONTE_CIMONE_NODE
from repro.perf.machines import compare_machine, utilisation_table
from repro.perf.scaling import strong_scaling_table


class TestScalingTable:
    def test_needs_single_node_baseline(self):
        with pytest.raises(ValueError):
            strong_scaling_table(HPLModel(), node_counts=(2, 4))

    def test_baseline_speedup_is_one(self):
        points = strong_scaling_table(HPLModel())
        assert points[0].n_nodes == 1
        assert points[0].speedup == pytest.approx(1.0)

    def test_fraction_of_linear_decreasing(self):
        points = strong_scaling_table(HPLModel())
        fractions = [p.fraction_of_linear for p in points]
        assert fractions == sorted(fractions, reverse=True)


class TestMachineComparison:
    TABLE = utilisation_table()

    def test_all_three_machines_present(self):
        assert set(self.TABLE) == {"montecimone", "marconi100power9",
                                   "armidathunderx2"}

    def test_paper_fraction_ordering(self):
        # Armida > Marconi100 > Monte Cimone on both metrics (§V-A).
        hpl = {m: row.hpl_fraction for m, row in self.TABLE.items()}
        stream = {m: row.stream_fraction for m, row in self.TABLE.items()}
        assert (hpl["armidathunderx2"] > hpl["marconi100power9"]
                > hpl["montecimone"])
        assert (stream["armidathunderx2"] > stream["marconi100power9"]
                > stream["montecimone"])

    def test_monte_cimone_row(self):
        row = self.TABLE["montecimone"]
        assert row.isa == "RV64GCB"

    def test_stream_fraction_close_to_paper(self):
        row = self.TABLE["montecimone"]
        assert row.stream_fraction == pytest.approx(0.155, abs=0.003)

    def test_compare_machine_is_deterministic(self):
        first = compare_machine(MONTE_CIMONE_NODE)
        second = compare_machine(MONTE_CIMONE_NODE)
        assert first == second
