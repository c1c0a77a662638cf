"""Tests for the STREAM model (Table V) and the QE-LAX model (§V-A)."""

import pytest

from repro.analysis import paper
from repro.benchmarks.qe_lax import QELaxConfig, QELaxModel
from repro.benchmarks.stream import (
    CodeModelError,
    STREAM_KERNELS,
    StreamConfig,
    StreamModel,
)
from repro.hardware.specs import (
    ARMIDA_NODE,
    L2_SPEC,
    MARCONI100_NODE,
    MONTE_CIMONE_NODE,
)


class TestStreamConfig:
    def test_paper_ddr_size_fits_medany(self):
        # 1945.5 MiB is deliberately just under the 2 GiB medany cap.
        StreamConfig(array_mib=1945.5).validate_code_model()

    def test_static_arrays_over_2gib_fail_to_link(self):
        with pytest.raises(CodeModelError, match="medany"):
            StreamConfig(array_mib=2049.0).validate_code_model()

    def test_dynamic_arrays_escape_the_limit(self):
        StreamConfig(array_mib=4096.0, static_arrays=False).validate_code_model()

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamConfig(array_mib=0)
        with pytest.raises(ValueError):
            StreamConfig(n_threads=0)


class TestTableV:
    RESULTS = StreamModel().table_v()

    @pytest.mark.parametrize("kernel,expected",
                             list(paper.TABLE_V_DDR_MB_S.items()))
    def test_ddr_kernels(self, kernel, expected):
        measured = self.RESULTS["STREAM.DDR"].kernel_mean(kernel)
        assert measured == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("kernel,expected",
                             list(paper.TABLE_V_L2_MB_S.items()))
    def test_l2_kernels(self, kernel, expected):
        measured = self.RESULTS["STREAM.L2"].kernel_mean(kernel)
        assert measured == pytest.approx(expected, rel=0.01)

    def test_regimes_detected(self):
        # The 1945.5 MiB set streams from DDR, the 1.1 MiB set from L2:
        # each column attains its own regime's fraction of that regime's
        # peak.
        for kernel in STREAM_KERNELS:
            ddr = self.RESULTS["STREAM.DDR"].kernel_mean(kernel) * 1e6
            l2 = self.RESULTS["STREAM.L2"].kernel_mean(kernel) * 1e6
            assert ddr == pytest.approx(
                StreamModel.DDR_FRACTIONS[kernel]
                * MONTE_CIMONE_NODE.peak_bandwidth, rel=0.01)
            assert l2 == pytest.approx(
                StreamModel.L2_FRACTIONS[kernel]
                * L2_SPEC.bandwidth_bytes_per_s, rel=0.01)

    def test_ddr_best_fraction_15_5_percent(self):
        # §V-A: "no more than 15.5% of the available peak bandwidth".
        assert self.RESULTS["STREAM.DDR"].best_fraction_of_peak == \
            pytest.approx(0.155, abs=0.003)

    def test_l2_copy_dominates(self):
        l2 = self.RESULTS["STREAM.L2"]
        assert l2.kernel_mean("copy") > l2.kernel_mean("add") > \
            l2.kernel_mean("scale")


class TestStreamModelBehaviour:
    def test_over_limit_run_raises_before_measuring(self):
        with pytest.raises(CodeModelError):
            StreamModel().run(StreamConfig(array_mib=3000.0))

    def test_bitmanip_toolchain_recovers_bandwidth(self):
        # §V-A item (iii): GCC 12 + binutils 2.37 emit Zba/Zbb.
        base = StreamModel().run(StreamConfig(array_mib=1945.5))
        zbb = StreamModel().run(StreamConfig(array_mib=1945.5, bitmanip=True))
        for kernel in STREAM_KERNELS:
            assert zbb.kernel_mean(kernel) > base.kernel_mean(kernel)

    def test_comparison_machines_use_aggregate_fraction(self):
        result = StreamModel(node=MARCONI100_NODE).run(
            StreamConfig(array_mib=1945.5))
        assert result.best_fraction_of_peak == pytest.approx(0.482, abs=0.003)
        result = StreamModel(node=ARMIDA_NODE).run(
            StreamConfig(array_mib=1945.5))
        assert result.best_fraction_of_peak == pytest.approx(0.6321, abs=0.003)

    def test_deterministic(self):
        a = StreamModel().run(StreamConfig())
        b = StreamModel().run(StreamConfig())
        assert a.kernel_mean("triad") == b.kernel_mean("triad")

    def test_spread_magnitude_matches_table_v(self):
        # Table V σ values are a few MB/s on ~1100 MB/s.
        result = StreamModel().run(StreamConfig())
        for stats in result.bandwidth_mb_s.values():
            assert stats.std < 0.02 * stats.mean


class TestQELax:
    RESULT = QELaxModel().run()

    def test_gflops(self):
        # Paper: 1.44 ± 0.05 GFLOP/s.
        assert self.RESULT.throughput.mean == pytest.approx(1.44, abs=0.05)

    def test_runtime(self):
        # Paper: 37.40 ± 0.14 s.
        assert self.RESULT.runtime_s.mean == pytest.approx(37.40, abs=0.4)

    def test_efficiency_36_percent(self):
        assert self.RESULT.efficiency == pytest.approx(0.36)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QELaxConfig(n=1)
        with pytest.raises(ValueError):
            QELaxConfig(n_nodes=0)

    def test_efficiency_sits_between_stream_and_hpl(self):
        # The LAX mix lands between bandwidth-bound and compute-bound.
        assert 0.155 < self.RESULT.efficiency < 0.465

    def test_summary_renders(self):
        text = self.RESULT.summary()
        assert "qe_lax" in text and "GFLOP/s" in text
