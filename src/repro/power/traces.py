"""Synthesis of the power traces shown in Fig. 3 and Fig. 4.

Fig. 3 shows, for each benchmark, 8 seconds of power for three rail groups
(core; DDR; PCIe+PLL+IO), produced by averaging raw shunt samples over 1 ms
windows.  The traces are not flat: HPL alternates panel-factorisation and
update phases, STREAM cycles its four kernels, QE alternates diagonalisation
sweeps.  :class:`TraceSynthesizer` reproduces those shapes with a
deterministic, seeded model so the benchmark harness can regenerate the
figure's series byte-for-byte across runs.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.power.boot import BootPowerModel
from repro.power.model import (
    HPL_PROFILE,
    IDLE_PROFILE,
    NodePhase,
    QE_PROFILE,
    RailPowerModel,
    STREAM_DDR_PROFILE,
    STREAM_L2_PROFILE,
    WorkloadProfile,
)

__all__ = ["PowerTrace", "TraceSynthesizer", "RAIL_GROUPS"]

#: The three panels of Fig. 3: core, DDR aggregate, PCIe+PLL+IO aggregate.
RAIL_GROUPS: Dict[str, tuple[str, ...]] = {
    "core": ("core",),
    "ddr": ("ddr_soc", "ddr_mem", "ddr_pll", "ddr_vpp"),
    "pcie_pll_io": ("pcievp", "pcievph", "pll", "io"),
}


@dataclass
class PowerTrace:
    """A sampled power time-series for one rail group.

    ``times_s`` and ``power_w`` are equal-length arrays; ``window_s`` is the
    averaging window used to produce each sample (1 ms in Fig. 3).
    """

    label: str
    times_s: np.ndarray
    power_w: np.ndarray
    window_s: float

    def mean_w(self) -> float:
        """Mean power over the trace."""
        return float(np.mean(self.power_w))

    def peak_w(self) -> float:
        """Maximum windowed power over the trace."""
        return float(np.max(self.power_w))

    def std_w(self) -> float:
        """Standard deviation of the windowed power."""
        return float(np.std(self.power_w))


def _hpl_modulation(t: float) -> float:
    """HPL phase structure: long update phases dipping for panel+bcast.

    The dips correspond to the communication/panel phases where the FPU
    drains (visible in Fig. 3 and in the Fig. 5 instruction heatmap).
    """
    period = 2.6  # seconds per panel cycle at the single-node problem size
    phase = (t % period) / period
    dip = -0.22 if phase < 0.18 else 0.0
    ripple = 0.02 * math.sin(2 * math.pi * t / 0.4)
    return 1.0 + dip + ripple


_STREAM_LEVELS = (1.04, 0.97, 1.0, 1.0)


def _stream_modulation(t: float) -> float:
    """STREAM cycles copy→scale→add→triad; each kernel has its own level."""
    period = 1.6
    phase = int((t % period) / period * 4)
    return _STREAM_LEVELS[min(max(phase, 0), 3)]


def _qe_modulation(t: float) -> float:
    """QE LAX alternates rotation sweeps and re-blocking pauses."""
    period = 3.1
    phase = (t % period) / period
    pause = -0.15 if phase > 0.85 else 0.0
    return 1.0 + pause + 0.015 * math.sin(2 * math.pi * t / 0.7)


def _flat(t: float) -> float:
    return 1.0


_MODULATIONS: Dict[str, Callable[[float], float]] = {
    "idle": _flat,
    "hpl": _hpl_modulation,
    "stream_l2": _stream_modulation,
    "stream_ddr": _stream_modulation,
    "qe": _qe_modulation,
}


def activity_modulation(workload: str, t_s: float) -> float:
    """Phase-structure factor for one workload at time ``t_s``.

    The node lifecycle modulates instantaneous activity with it (e.g.
    HPL's panel-broadcast dips show up as lower instruction rates in the
    Fig. 5 heatmap), and the Fig. 3 synthesiser maps it over its sample
    times.  Unknown workloads are flat.
    """
    modulation = _MODULATIONS.get(workload)
    if modulation is None:
        return 1.0
    return modulation(t_s)


_PROFILES: Dict[str, WorkloadProfile] = {
    "idle": IDLE_PROFILE,
    "hpl": HPL_PROFILE,
    "stream_l2": STREAM_L2_PROFILE,
    "stream_ddr": STREAM_DDR_PROFILE,
    "qe": QE_PROFILE,
}


class TraceSynthesizer:
    """Deterministic power-trace generator for Fig. 3 and Fig. 4.

    Parameters
    ----------
    seed:
        Seed for the measurement-noise generator; the default reproduces
        the series committed in EXPERIMENTS.md exactly.
    """

    #: Relative RMS of the shunt-ADC measurement noise after 1 ms averaging.
    NOISE_RMS = 0.012

    def __init__(self, seed: int = 2022,
                 rail_model: RailPowerModel | None = None) -> None:
        self.seed = seed
        self.rail_model = rail_model if rail_model is not None else RailPowerModel()

    def benchmark_trace(self, workload: str, group: str = "core",
                        duration_s: float = 8.0,
                        window_s: float = 1e-3) -> PowerTrace:
        """An 8-second Fig. 3-style trace for one workload and rail group.

        Only the *activity-dependent* share of each rail is modulated by
        the workload's phase structure; leakage and always-on components
        stay flat, as they do in the measured traces.
        """
        if workload not in _PROFILES:
            raise KeyError(f"unknown workload {workload!r}; "
                           f"choose from {sorted(_PROFILES)}")
        if group not in RAIL_GROUPS:
            raise KeyError(f"unknown rail group {group!r}; "
                           f"choose from {sorted(RAIL_GROUPS)}")
        profile = _PROFILES[workload]
        rails = RAIL_GROUPS[group]
        times = np.arange(0.0, duration_s, window_s)

        active_mw = self.rail_model.rail_powers_mw(NodePhase.R3_OS, profile)
        idle_mw = self.rail_model.rail_powers_mw(NodePhase.R3_OS, IDLE_PROFILE)
        base = sum(idle_mw[r] for r in rails)
        delta = sum(active_mw[r] - idle_mw[r] for r in rails)

        modulation = np.fromiter(map(_MODULATIONS[workload], times.tolist()),
                                 dtype=float, count=len(times))
        # Decorrelate the noise of each workload×group panel with a digest
        # that is stable across processes — builtin hash() is salted per
        # interpreter (PYTHONHASHSEED), which made reruns non-reproducible.
        stream = zlib.crc32(f"{workload}/{group}".encode("ascii"))
        rng = np.random.default_rng(self.seed + stream % 65536)
        noise = rng.normal(0.0, self.NOISE_RMS * max(base + delta, 1.0),
                           size=times.shape)
        power_mw = base + delta * modulation + noise
        return PowerTrace(label=f"{workload}/{group}", times_s=times,
                          power_w=np.maximum(power_mw, 0.0) / 1e3,
                          window_s=window_s)

    def boot_trace(self, group: str = "core", duration_s: float = 80.0,
                   window_s: float = 0.1) -> PowerTrace:
        """The Fig. 4 boot trace for one rail group."""
        if group not in RAIL_GROUPS:
            raise KeyError(f"unknown rail group {group!r}")
        rails = RAIL_GROUPS[group]
        boot = BootPowerModel(self.rail_model)
        times = np.arange(0.0, duration_s, window_s)
        power_mw = np.array([
            sum(boot.rail_powers_mw(t)[r] for r in rails) for t in times
        ])
        rng = np.random.default_rng(self.seed + 7)
        noise = rng.normal(0.0, self.NOISE_RMS * np.maximum(power_mw, 1.0))
        return PowerTrace(label=f"boot/{group}", times_s=times,
                          power_w=np.maximum(power_mw + noise, 0.0) / 1e3,
                          window_s=window_s)

    def all_benchmark_traces(self, duration_s: float = 8.0) -> Dict[str, Dict[str, PowerTrace]]:
        """Every Fig. 3 panel: workload × rail-group."""
        return {
            workload: {
                group: self.benchmark_trace(workload, group, duration_s)
                for group in RAIL_GROUPS
            }
            for workload in ("hpl", "stream_l2", "stream_ddr", "qe")
        }
