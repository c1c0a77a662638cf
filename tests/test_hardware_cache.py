"""Tests for the L2 cache and prefetcher model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import AccessPattern, L2Cache, StreamPrefetcher
from repro.hardware.specs import DDR_SPEC, MIB

DDR_BW = DDR_SPEC.peak_bandwidth_bytes_per_s


class TestAccessPattern:
    def test_validation(self):
        with pytest.raises(ValueError):
            AccessPattern(working_set_bytes=-1)
        with pytest.raises(ValueError):
            AccessPattern(working_set_bytes=1, n_streams=0)
        with pytest.raises(ValueError):
            AccessPattern(working_set_bytes=1, read_fraction=1.5)


class TestPrefetcher:
    def test_full_coverage_within_stream_budget(self):
        prefetcher = StreamPrefetcher(max_streams=8, efficiency=0.5)
        pattern = AccessPattern(working_set_bytes=MIB * 100, n_streams=3)
        assert prefetcher.coverage(pattern) == pytest.approx(0.5)

    def test_coverage_degrades_beyond_budget(self):
        prefetcher = StreamPrefetcher(max_streams=8, efficiency=0.5)
        pattern = AccessPattern(working_set_bytes=MIB * 100, n_streams=16)
        assert prefetcher.coverage(pattern) == pytest.approx(0.25)

    def test_irregular_patterns_not_prefetched(self):
        prefetcher = StreamPrefetcher(max_streams=8, efficiency=0.5)
        pattern = AccessPattern(working_set_bytes=MIB * 100, n_streams=2,
                                spatial_locality=0.0)
        assert prefetcher.coverage(pattern) == 0.0

    def test_disabled_prefetcher(self):
        prefetcher = StreamPrefetcher(max_streams=0, efficiency=0.5)
        pattern = AccessPattern(working_set_bytes=MIB * 100)
        assert prefetcher.coverage(pattern) == 0.0


class TestL2Cache:
    def test_small_set_fits(self):
        cache = L2Cache()
        assert cache.fits(AccessPattern(working_set_bytes=int(1.1 * MIB)))

    def test_large_set_spills(self):
        cache = L2Cache()
        assert not cache.fits(AccessPattern(working_set_bytes=100 * MIB))

    def test_margin_for_co_resident_lines(self):
        # 90% rule: 1.9 MiB of data does NOT fit a 2 MiB cache.
        cache = L2Cache()
        assert not cache.fits(AccessPattern(working_set_bytes=int(1.9 * MIB)))

    def test_l2_resident_bandwidth_is_port_bandwidth(self):
        cache = L2Cache()
        pattern = AccessPattern(working_set_bytes=MIB)
        assert cache.effective_bandwidth(pattern, DDR_BW) == \
            cache.spec.bandwidth_bytes_per_s

    def test_ddr_bandwidth_floor_without_prefetch(self):
        cache = L2Cache(prefetcher=StreamPrefetcher(efficiency=0.0))
        pattern = AccessPattern(working_set_bytes=2000 * MIB)
        assert cache.effective_bandwidth(pattern, DDR_BW) == \
            pytest.approx(0.13 * DDR_BW)

    def test_perfect_prefetch_reaches_ddr_peak(self):
        cache = L2Cache(prefetcher=StreamPrefetcher(efficiency=1.0))
        pattern = AccessPattern(working_set_bytes=2000 * MIB, n_streams=2)
        assert cache.effective_bandwidth(pattern, DDR_BW) == \
            pytest.approx(DDR_BW)

    @given(ws=st.integers(min_value=1, max_value=4 * 1024 ** 3),
           streams=st.integers(min_value=1, max_value=32),
           efficiency=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_bandwidth_never_exceeds_roofs(self, ws, streams, efficiency):
        """Property: effective bandwidth ≤ max(L2 port, DDR peak), > 0."""
        cache = L2Cache(prefetcher=StreamPrefetcher(efficiency=efficiency))
        pattern = AccessPattern(working_set_bytes=ws, n_streams=streams)
        bandwidth = cache.effective_bandwidth(pattern, DDR_BW)
        assert 0 < bandwidth <= max(cache.spec.bandwidth_bytes_per_s, DDR_BW)

    @given(efficiency_lo=st.floats(min_value=0.0, max_value=0.5),
           delta=st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=50, deadline=None)
    def test_more_prefetch_never_hurts(self, efficiency_lo, delta):
        """Property: raising prefetcher efficiency is monotone in bandwidth."""
        pattern = AccessPattern(working_set_bytes=500 * MIB, n_streams=3)
        low = L2Cache(prefetcher=StreamPrefetcher(efficiency=efficiency_lo))
        high = L2Cache(prefetcher=StreamPrefetcher(
            efficiency=efficiency_lo + delta))
        assert (high.effective_bandwidth(pattern, DDR_BW)
                >= low.effective_bandwidth(pattern, DDR_BW) - 1e-9)
