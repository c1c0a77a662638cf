"""Tests for the analysis layer: tables, experiment drivers, report."""

import pytest

from repro.analysis import paper
from repro.analysis.experiments import (
    fig2_hpl_scaling,
    table2_topics,
    table4_hwmon,
)
from repro.analysis.tables import render_table


class TestRenderTable:
    def test_basic_layout(self):
        text = render_table(["a", "bb"], [[1, 2.5], ["x", "yyyy"]])
        lines = text.splitlines()
        assert lines[0].split("|")[0].strip() == "a"
        assert "-+-" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = render_table(["h"], [["v"]], title="My table")
        assert text.startswith("My table\n")

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = render_table(["x"], [[3.14159265]])
        assert "3.142" in text


class TestFastDrivers:
    """Driver shapes; their paper numbers are claims in the ledger."""

    def test_table2_topic_shapes(self):
        topics = table2_topics()
        assert topics["pmu_pub"].startswith("org/")
        assert "/core/0/" in topics["pmu_pub"]
        assert "dstat_pub" in topics["stats_pub"]

    def test_table4_is_table_iv(self):
        assert table4_hwmon() == {
            "nvme_temp": "/sys/class/hwmon/hwmon0/temp1_input",
            "mb_temp": "/sys/class/hwmon/hwmon1/temp1_input",
            "cpu_temp": "/sys/class/hwmon/hwmon1/temp2_input",
        }

    def test_fig2_anchors(self):
        with pytest.raises(KeyError):
            fig2_hpl_scaling().point(16)


class TestPaperConstants:
    def test_table_vi_totals_match_paper_row(self):
        from repro.power.model import TABLE_VI_MILLIWATTS

        # The paper's Total row: 4810/5935/5486/5336/5670/1385/4024.
        totals = {col: sum(v.values())
                  for col, v in TABLE_VI_MILLIWATTS.items()}
        assert totals["idle"] == 4810
        assert totals["hpl"] == pytest.approx(5935, abs=1)
        assert totals["stream_l2"] == pytest.approx(5486, abs=1)
        assert totals["stream_ddr"] == pytest.approx(5336, abs=1)
        assert totals["qe"] == pytest.approx(5670, abs=1)
        assert totals["boot_r1"] == pytest.approx(1385, abs=1)
        assert totals["boot_r2"] == pytest.approx(4024, abs=1)

    def test_comparison_constants(self):
        assert paper.COMPARISON_FRACTIONS["montecimone"]["hpl"] == 0.465
        assert paper.HPL_FULL_MACHINE["fraction_of_linear"] == 0.85
