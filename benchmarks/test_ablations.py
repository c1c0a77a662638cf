"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation flips one calibrated knob and checks the direction and
rough magnitude of the effect — these are the paper's own "margins for
improvement" claims (§V-A, §VI) made quantitative:

* prefetcher efficiency (the L2 prefetcher "should be perfectly capable
  of reducing the gap" — §V-A item i);
* Zba/Zbb code generation (GCC 12 + binutils 2.37 — §V-A item iii);
* interconnect upgrade (GbE → IB FDR, "tuning (or technology upgrade) on
  the interconnect side" — §V-A);
* enclosure configuration (§V-C).
"""

import pytest

from repro.benchmarks.hpl import HPLConfig, HPLModel
from repro.benchmarks.stream import StreamConfig, StreamModel
from repro.hardware.cache import AccessPattern, L2Cache, StreamPrefetcher
from repro.hardware.specs import DDR_SPEC, MIB
from repro.network.topology import ClusterTopology
from repro.thermal.enclosure import Enclosure, EnclosureConfig
from repro.thermal.model import NodeThermalModel
from repro.thermal.runaway import TRIP_CELSIUS


def test_ablation_prefetcher_closes_the_stream_gap(benchmark):
    """Raising prefetcher efficiency recovers most of the DDR gap."""
    pattern = AccessPattern(working_set_bytes=1945 * MIB, n_streams=3)
    ddr = DDR_SPEC.peak_bandwidth_bytes_per_s

    def sweep():
        return {eff: L2Cache(prefetcher=StreamPrefetcher(efficiency=eff))
                .effective_bandwidth(pattern, ddr)
                for eff in (0.0, 0.3, 0.6, 0.9)}

    curve = benchmark(sweep)
    # Monotone recovery toward peak.
    values = [curve[e] for e in sorted(curve)]
    assert values == sorted(values)
    assert curve[0.9] > 5 * curve[0.0] / 2  # large headroom, as §V-A argues
    assert curve[0.9] < ddr


def test_ablation_bitmanip_toolchain(benchmark):
    """GCC 12 + binutils 2.37 code-gen gains a few percent of bandwidth."""
    model = StreamModel()

    def both():
        base = model.run(StreamConfig(array_mib=1945.5))
        zbb = model.run(StreamConfig(array_mib=1945.5, bitmanip=True))
        return base, zbb

    base, zbb = benchmark(both)
    gain = zbb.kernel_mean("copy") / base.kernel_mean("copy")
    assert 1.01 < gain < 1.10  # "minimal support": percent-level, not 2×


def test_ablation_interconnect_upgrade(benchmark):
    """Replaying Fig. 2 with an FDR-class fabric recovers scaling."""
    def scaled_efficiency(bandwidth_bytes_per_s, latency_s):
        topology = ClusterTopology(
            [f"n{i}" for i in range(8)],
            link_bandwidth_bytes_per_s=bandwidth_bytes_per_s,
            link_latency_s=latency_s)
        model = HPLModel(topology=topology)
        result = model.run(HPLConfig(n_nodes=8))
        single = HPLModel().run(HPLConfig())
        return result.gflops.mean / single.gflops.mean / 8

    def both():
        gbe = scaled_efficiency(117e6, 50e-6)
        ib_fdr = scaled_efficiency(6.8e9, 2e-6)
        return gbe, ib_fdr

    gbe, ib_fdr = benchmark(both)
    assert gbe == pytest.approx(0.85, abs=0.04)
    assert ib_fdr > 0.97  # near-perfect scaling once RDMA-class fabric works


def test_ablation_enclosure_sweep(benchmark):
    """Thermal resistance of the runaway slot across configurations."""
    def sweep():
        return {
            "original": Enclosure(EnclosureConfig.original())
            .thermal_resistance(4),
            "lid_off_only": Enclosure(EnclosureConfig(
                lid_on=False, blade_spacing_u=0)).thermal_resistance(4),
            "mitigated": Enclosure(EnclosureConfig.mitigated())
            .thermal_resistance(4),
        }

    resistances = benchmark(sweep)
    assert resistances["original"] > resistances["lid_off_only"] >= \
        resistances["mitigated"]
    # Only the original configuration can push the node past the trip.
    hpl_power = 5.935
    for name, resistance in resistances.items():
        enclosure = Enclosure(EnclosureConfig.original()
                              if name == "original"
                              else EnclosureConfig.mitigated())
        steady = 25.0 + hpl_power * resistance + (
            4.0 if name == "original" else 0.0)
        if name == "original":
            assert steady > TRIP_CELSIUS
        else:
            assert steady < 60.0


def test_ablation_spacing_only_is_not_enough(benchmark):
    """Spacing without lid removal cannot prevent the runaway."""
    spaced = Enclosure(EnclosureConfig(lid_on=True, blade_spacing_u=1))

    steady = benchmark(
        lambda: NodeThermalModel(spaced, slot=4).steady_state_soc_c(5.935))
    assert steady > TRIP_CELSIUS
