"""STREAM benchmark model (Table V and the §V-A bandwidth discussion).

The paper runs upstream, unmodified STREAM 5.10 with 4 OpenMP threads in
two working-set regimes:

* **STREAM.DDR** — 1945.5 MiB of arrays, streaming from DRAM.  Attained
  bandwidth is at most 15.5% of the 7760 MB/s peak (copy 1206, scale 1025,
  add 1124, triad 1122 MB/s): the in-order U74 is latency-bound on demand
  misses and the upstream build does not engage the L2 prefetcher well.
* **STREAM.L2** — 1.1 MiB of arrays, L2-resident (copy 7079, scale 3558,
  add 4380, triad 4365 MB/s): copy saturates the L2 port; scale/add/triad
  are FP-pipeline-bound.

The model composes the cache model's regime bandwidth with per-kernel
microarchitectural factors calibrated from Table V, and reproduces the two
software limitations §V-A discusses:

* the **medany code-model limit**: upstream STREAM's statically-sized
  arrays in one translation unit must stay within ±2 GiB of ``pc``, so a
  DDR working set above 2 GiB raises :class:`CodeModelError` — which is
  exactly why the paper's DDR test size is 1945.5 MiB, just under the cap;
* the **missing Zba/Zbb code-gen**: GCC 10.3 cannot emit the bit-
  manipulation extensions; enabling :attr:`StreamConfig.bitmanip` models a
  toolchain that can (GCC 12 + binutils 2.37), recovering a few percent of
  address-generation overhead — the ablation benchmark exercises this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.benchmarks.base import RunStatistics
from repro.hardware.cache import AccessPattern, L2Cache
from repro.hardware.specs import GIB, MIB, MONTE_CIMONE_NODE, NodeSpec

__all__ = ["STREAM_KERNELS", "CodeModelError", "StreamConfig", "StreamResult",
           "StreamModel"]

#: The four STREAM kernels with their array/stream counts:
#: (arrays touched, concurrent streams, flops per element).
STREAM_KERNELS: Dict[str, tuple[int, int, int]] = {
    "copy": (2, 2, 0),
    "scale": (2, 2, 1),
    "add": (3, 3, 1),
    "triad": (3, 3, 2),
}


class CodeModelError(RuntimeError):
    """Static data exceeds the RV64 medany ±2 GiB code-model reach (§V-A)."""


@dataclass(frozen=True)
class StreamConfig:
    """One STREAM build + run configuration.

    ``array_mib`` is the total size of all three arrays; the paper's two
    regimes are 1945.5 MiB (DDR) and 1.1 MiB (L2).  ``static_arrays``
    models the upstream source (statically-sized arrays in one translation
    unit); only then does the medany limit apply.
    """

    array_mib: float = 1945.5
    n_threads: int = 4
    static_arrays: bool = True
    bitmanip: bool = False

    #: The RV64 medany code model keeps linked symbols within ±2 GiB of pc.
    MEDANY_LIMIT_BYTES = 2 * GIB

    def __post_init__(self) -> None:
        if self.array_mib <= 0:
            raise ValueError("array size must be positive")
        if self.n_threads < 1:
            raise ValueError("need at least one thread")

    @property
    def total_bytes(self) -> int:
        """Bytes of STREAM data (all arrays together)."""
        return int(self.array_mib * MIB)

    def validate_code_model(self) -> None:
        """Raise :class:`CodeModelError` when static arrays exceed medany."""
        if self.static_arrays and self.total_bytes >= self.MEDANY_LIMIT_BYTES:
            raise CodeModelError(
                f"{self.array_mib} MiB of statically-sized arrays cannot be "
                f"linked under the RV64 medany code model (±2 GiB); rebuild "
                f"with dynamically allocated arrays or a large-code-model "
                f"workaround (§V-A)")


@dataclass(frozen=True)
class StreamResult:
    """Per-kernel attained bandwidth for one configuration."""

    config: StreamConfig
    bandwidth_mb_s: Dict[str, RunStatistics]      # per kernel
    best_fraction_of_peak: float

    def kernel_mean(self, kernel: str) -> float:
        """Mean bandwidth of one kernel in MB/s."""
        return self.bandwidth_mb_s[kernel].mean


class StreamModel:
    """STREAM bandwidth model for a node spec.

    For Monte Cimone the per-kernel factors below are calibrated against
    Table V; comparison machines use their §V-A aggregate
    ``stream_fraction`` for every kernel (the paper only quotes the
    aggregate for them).
    """

    #: Attained fraction of DDR peak per kernel, upstream build, U740.
    #: (copy is the paper's quoted 15.5% ceiling.)
    DDR_FRACTIONS = {"copy": 0.15541, "scale": 0.13209, "add": 0.14485,
                     "triad": 0.14459}
    #: Attained fraction of the L2 port bandwidth per kernel, U740.
    L2_FRACTIONS = {"copy": 0.73740, "scale": 0.37063, "add": 0.45625,
                    "triad": 0.45469}
    #: Bandwidth recovered by Zba/Zbb address generation (§V-A item iii).
    BITMANIP_GAIN = 1.045
    #: Run-to-run spread: Table V's σ ≈ 3-6 MB/s on ~1100 MB/s.
    RELATIVE_SPREAD = 0.0035

    def __init__(self, node: NodeSpec = MONTE_CIMONE_NODE,
                 l2_cache: L2Cache | None = None) -> None:
        self.node = node
        self.l2 = l2_cache if l2_cache is not None else L2Cache(spec=node.soc.l2)

    def _regime(self, config: StreamConfig) -> str:
        pattern = AccessPattern(working_set_bytes=config.total_bytes)
        return "l2" if self.l2.fits(pattern) else "ddr"

    def _kernel_bandwidth(self, kernel: str, regime: str) -> float:
        """Central attained bandwidth for one kernel, bytes/s."""
        if kernel not in STREAM_KERNELS:
            raise KeyError(f"unknown STREAM kernel {kernel!r}")
        if self.node is MONTE_CIMONE_NODE or self.node.name == "montecimone":
            if regime == "l2":
                return self.L2_FRACTIONS[kernel] * self.l2.spec.bandwidth_bytes_per_s
            return self.DDR_FRACTIONS[kernel] * self.node.peak_bandwidth
        # Comparison machines: single aggregate fraction, DDR regime only
        # (their L2/L3 dwarf the 1.1 MiB set, but the paper compares DDR).
        return self.node.stream_fraction * self.node.peak_bandwidth

    def run(self, config: StreamConfig | None = None,
            seed: int = 2022) -> StreamResult:
        """Model one STREAM execution (mean ± std per kernel).

        Raises :class:`CodeModelError` for over-limit static arrays before
        any bandwidth is computed, like the link step fails before any run.
        """
        config = config if config is not None else StreamConfig()
        config.validate_code_model()
        regime = self._regime(config)
        gain = self.BITMANIP_GAIN if config.bitmanip else 1.0
        bandwidths = {}
        for i, kernel in enumerate(STREAM_KERNELS):
            central = self._kernel_bandwidth(kernel, regime) * gain / 1e6
            bandwidths[kernel] = RunStatistics.from_model(
                central, self.RELATIVE_SPREAD, seed=seed + i)
        best = max(stats.mean for stats in bandwidths.values())
        return StreamResult(
            config=config, bandwidth_mb_s=bandwidths,
            best_fraction_of_peak=best * 1e6 / self.node.peak_bandwidth)

    def table_v(self, seed: int = 2022) -> Dict[str, StreamResult]:
        """Both Table V columns: the DDR and L2 configurations."""
        return {
            "STREAM.DDR": self.run(StreamConfig(array_mib=1945.5), seed=seed),
            "STREAM.L2": self.run(StreamConfig(array_mib=1.1), seed=seed + 50),
        }
