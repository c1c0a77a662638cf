"""Tests for the assembled HiFive Unmatched board."""

import pytest

from repro.hardware.board import HiFiveUnmatched


class TestBoardComposition:
    def test_four_schedulable_cores(self):
        assert HiFiveUnmatched().n_cores == 4

    def test_peaks_match_datasheet(self):
        board = HiFiveUnmatched()
        assert board.peak_flops == pytest.approx(4.0e9)

    def test_infiniband_optional(self):
        assert HiFiveUnmatched().infiniband is None
        assert HiFiveUnmatched(with_infiniband=True).infiniband is not None

    def test_perf_interface_covers_all_cores(self):
        board = HiFiveUnmatched()
        assert board.perf.core_ids == [0, 1, 2, 3]

    def test_enable_hpm_counters_applies_to_every_core(self):
        board = HiFiveUnmatched()
        board.enable_hpm_counters()
        assert all(core.hpm.programmable_enabled for core in board.cores)

    def test_nvme_temperature_syncs_to_hwmon(self):
        board = HiFiveUnmatched()
        board.nvme.temperature_c = 47.0
        board.sync_nvme_temperature()
        assert board.hwmon.read_celsius("nvme_temp") == 47.0

    def test_rails_are_the_table_vi_set(self):
        board = HiFiveUnmatched()
        assert len(list(board.rails)) == 9
