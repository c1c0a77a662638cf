"""Tests for the datasheet constants — the calibration anchors."""

import pytest

from repro.analysis import paper
from repro.hardware.specs import (
    ARMIDA_NODE,
    DDR_SPEC,
    L2_SPEC,
    MARCONI100_NODE,
    MONTE_CIMONE_NODE,
    U740_SPEC,
)


class TestU740:
    def test_four_application_cores(self):
        assert U740_SPEC.n_cores == 4

    def test_peak_one_gflop_per_core(self):
        assert U740_SPEC.peak_flops_per_core == pytest.approx(1.0e9)

    def test_peak_four_gflops_per_chip(self):
        # §V-A: 4.0 GFLOP/s peak value for a single chip.
        assert U740_SPEC.peak_flops == pytest.approx(4.0e9)

    def test_clock_is_1_2_ghz(self):
        assert U740_SPEC.clock_hz == pytest.approx(1.2e9)


class TestMemory:
    def test_ddr_peak_7760_mb_s(self):
        # §V-A: "Out of the peak 7760 MB/s".
        assert DDR_SPEC.peak_bandwidth_bytes_per_s == pytest.approx(7760e6)

    def test_capacity_16_gb(self):
        assert DDR_SPEC.capacity_bytes == 16 * 1024 ** 3

    def test_l2_is_2_mib(self):
        assert L2_SPEC.size_bytes == 2 * 1024 ** 2

    def test_l2_prefetcher_tracks_eight_streams(self):
        # §V-A: "able of tracking up to eight streams per core".
        assert L2_SPEC.prefetch_streams == 8


class TestMonteCimoneNode:
    def test_single_socket(self):
        assert MONTE_CIMONE_NODE.n_sockets == 1
        assert MONTE_CIMONE_NODE.peak_flops == pytest.approx(4.0e9)

    def test_calibrated_fractions_match_paper(self):
        fractions = paper.COMPARISON_FRACTIONS["montecimone"]
        assert MONTE_CIMONE_NODE.hpl_fraction == fractions["hpl"]
        assert MONTE_CIMONE_NODE.stream_fraction == fractions["stream"]

    def test_four_cores_total(self):
        assert MONTE_CIMONE_NODE.n_cores == 4


class TestComparisonNodes:
    def test_marconi100_fractions(self):
        assert MARCONI100_NODE.hpl_fraction == pytest.approx(0.597)
        assert MARCONI100_NODE.stream_fraction == pytest.approx(0.482)

    def test_armida_fractions(self):
        assert ARMIDA_NODE.hpl_fraction == pytest.approx(0.6579)
        assert ARMIDA_NODE.stream_fraction == pytest.approx(0.6321)

    def test_comparators_dwarf_the_u740(self):
        # The point of §V-A is efficiency, not absolute speed: the
        # comparison nodes are orders of magnitude faster.
        assert MARCONI100_NODE.peak_flops > 50 * MONTE_CIMONE_NODE.peak_flops
        assert ARMIDA_NODE.peak_flops > 50 * MONTE_CIMONE_NODE.peak_flops
