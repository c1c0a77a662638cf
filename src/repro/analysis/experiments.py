"""One driver per paper experiment.

Every function is self-contained (builds the models/simulations it needs)
and returns structured results carrying both the measured value and the
paper's value, so callers — the benchmark harness, the report generator,
the examples — never re-derive the comparison.

The two full-cluster simulations (Fig. 5 and Fig. 6) accept a
``duration_s`` so the harness can trade fidelity for runtime; the thermal
time constants are honest, so the default durations are long enough for
the runaway to develop exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis import paper
from repro.benchmarks.hpl import HPLConfig, HPLModel
from repro.benchmarks.qe_lax import QELaxConfig, QELaxModel
from repro.benchmarks.stream import StreamModel
from repro.cluster.cluster import MonteCimoneCluster
from repro.examon.deployment import ExamonDeployment
from repro.examon.plugins.stats_pub import TABLE_III_METRICS
from repro.examon.topics import TopicSchema
from repro.hardware.sensors import HWMON_PATHS
from repro.network.infiniband import InfinibandFabric
from repro.perf.machines import utilisation_table
from repro.perf.scaling import ScalingPoint, strong_scaling_table
from repro.power.boot import BootPowerModel
from repro.power.model import (
    IDLE_PROFILE,
    HPL_PROFILE,
    NodePhase,
    QE_PROFILE,
    RailPowerModel,
    STREAM_DDR_PROFILE,
    STREAM_L2_PROFILE,
    TABLE_VI_MILLIWATTS,
)
from repro.power.traces import RAIL_GROUPS, TraceSynthesizer
from repro.slurm.api import SlurmAPI
from repro.spack.environment import SpackEnvironment
from repro.spack.installer import Installer
from repro.thermal.enclosure import EnclosureConfig

__all__ = [
    "comparison_table", "fig2_hpl_scaling", "fig3_power_traces",
    "fig4_boot_power", "fig5_heatmaps", "fig5_store", "fig6_thermal_runaway",
    "infiniband_status", "qe_lax_result", "table1_software_stack",
    "table2_topics", "table3_stats_metrics", "table4_hwmon",
    "table5_stream", "table6_power",
]


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------
def table1_software_stack() -> List[Tuple[str, str, str, bool]]:
    """Install the production environment; compare versions to Table I.

    Returns rows ``(package, installed_version, paper_version, match)``.
    """
    environment = SpackEnvironment.monte_cimone()
    installer = Installer()
    environment.install(installer)
    rows = []
    for name, installed_version in environment.user_facing_table(installer):
        expected = paper.TABLE_I_STACK[name]
        rows.append((name, installed_version, expected,
                     installed_version == expected))
    return rows


# ---------------------------------------------------------------------------
# Tables II / III / IV
# ---------------------------------------------------------------------------
def table2_topics() -> Dict[str, str]:
    """Example topics in the Table II formats, one per plugin."""
    schema = TopicSchema()
    return {
        "pmu_pub": schema.pmu_topic("mc-node-1", 0, "instructions"),
        "stats_pub": schema.stats_topic("mc-node-1", "load_avg.1m"),
        "payload_format": "<value>;<timestamp>",
    }


def table3_stats_metrics(duration_s: float = 30.0) -> Dict[str, List[str]]:
    """Boot one node, run stats_pub, return the published metric names.

    The returned mapping has ``expected`` (Table III flattened) and
    ``published`` (what the plugin actually emitted) — the harness asserts
    they are equal as sets.
    """
    cluster = MonteCimoneCluster(
        enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    deployment = ExamonDeployment(cluster)
    deployment.start()
    cluster.run_for(duration_s)
    schema = deployment.schema
    prefix = schema.stats_topic("mc-node-1", "")
    published = sorted(
        topic[len(prefix):] for topic in deployment.db.topics()
        if topic.startswith(prefix))
    expected = sorted(metric for group in TABLE_III_METRICS.values()
                      for metric in group)
    return {"expected": expected, "published": published}


def table4_hwmon() -> Dict[str, str]:
    """The sensor → sysfs-path mapping (must equal Table IV)."""
    return dict(HWMON_PATHS)


# ---------------------------------------------------------------------------
# §V-A: HPL, STREAM, QE, comparison
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScalingComparison:
    """Fig. 2 outcome with the paper's anchor points."""

    points: List[ScalingPoint]
    paper_single_gflops: float
    paper_full_gflops: float
    paper_fraction_of_linear: float

    def point(self, n_nodes: int) -> ScalingPoint:
        """The scaling point for a node count."""
        for point in self.points:
            if point.n_nodes == n_nodes:
                return point
        raise KeyError(f"no point for {n_nodes} nodes")


def fig2_hpl_scaling(node_counts: Tuple[int, ...] = (1, 2, 4, 8)) -> ScalingComparison:
    """The Fig. 2 strong-scaling experiment."""
    points = strong_scaling_table(HPLModel(), node_counts)
    return ScalingComparison(
        points=points,
        paper_single_gflops=paper.HPL_SINGLE_NODE["gflops"],
        paper_full_gflops=paper.HPL_FULL_MACHINE["gflops"],
        paper_fraction_of_linear=paper.HPL_FULL_MACHINE["fraction_of_linear"])


def table5_stream() -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Table V: per-kernel (measured, paper) MB/s for both regimes."""
    results = StreamModel().table_v()
    reference = {"STREAM.DDR": paper.TABLE_V_DDR_MB_S,
                 "STREAM.L2": paper.TABLE_V_L2_MB_S}
    table: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for column, result in results.items():
        table[column] = {
            kernel: (stats.mean, reference[column][kernel])
            for kernel, stats in result.bandwidth_mb_s.items()}
    return table


def comparison_table() -> List[Tuple[str, float, float, float, float]]:
    """§V-A comparison: (machine, hpl_model, hpl_paper, stream_model, stream_paper)."""
    rows = []
    for name, row in utilisation_table().items():
        reference = paper.COMPARISON_FRACTIONS[name]
        rows.append((name, row.hpl_fraction, reference["hpl"],
                     row.stream_fraction, reference["stream"]))
    return rows


def qe_lax_result():
    """The QE LAX benchmark result (512² matrix, single node)."""
    return QELaxModel().run(QELaxConfig(n=paper.QE_LAX["n"]))


# ---------------------------------------------------------------------------
# Table VI and the power figures
# ---------------------------------------------------------------------------
def table6_power() -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Table VI: per-rail (model mW, paper mW) for every column."""
    model = RailPowerModel()
    columns = {
        "idle": (NodePhase.R3_OS, IDLE_PROFILE),
        "hpl": (NodePhase.R3_OS, HPL_PROFILE),
        "stream_l2": (NodePhase.R3_OS, STREAM_L2_PROFILE),
        "stream_ddr": (NodePhase.R3_OS, STREAM_DDR_PROFILE),
        "qe": (NodePhase.R3_OS, QE_PROFILE),
        "boot_r1": (NodePhase.R1_POWER_ON, IDLE_PROFILE),
        "boot_r2": (NodePhase.R2_BOOTLOADER, IDLE_PROFILE),
    }
    table: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for column, (phase, profile) in columns.items():
        modelled = model.rail_powers_mw(phase, profile)
        reference = TABLE_VI_MILLIWATTS[column]
        table[column] = {rail: (modelled[rail], reference[rail])
                         for rail in reference}
    return table


def fig3_power_traces(duration_s: float = 8.0) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Fig. 3: per-workload, per-rail-group trace statistics (watts)."""
    synthesizer = TraceSynthesizer()
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload, groups in synthesizer.all_benchmark_traces(duration_s).items():
        out[workload] = {
            group: {"mean_w": trace.mean_w(), "peak_w": trace.peak_w(),
                    "std_w": trace.std_w()}
            for group, trace in groups.items()}
    return out


def fig4_boot_power() -> Dict[str, float]:
    """Fig. 4: boot region averages and the §V-B core decomposition."""
    boot = BootPowerModel()
    decomposition = boot.decomposition()
    return {
        "r1_core_w": boot.region_average_mw("R1", "core") / 1e3,
        "r2_core_w": boot.region_average_mw("R2", "core") / 1e3,
        "r3_core_w": boot.region_average_mw("R3", "core", margin_s=16.0) / 1e3,
        "ddr_mem_r1_w": boot.region_average_mw("R1", "ddr_mem") / 1e3,
        "leakage_fraction": decomposition["leakage"],
        "dynamic_clock_fraction": decomposition["clock_and_dynamic"],
        "os_fraction": decomposition["os_baseline"],
    }


# ---------------------------------------------------------------------------
# Fig. 5 and Fig. 6: full-cluster simulations
# ---------------------------------------------------------------------------
def fig5_store(duration_s: float = 300.0):
    """The Fig. 5 run: HPL on all 8 nodes under ExaMon.

    Returns ``(deployment, start_s, end_s)``: the ExaMon deployment whose
    store holds the run, and the run's simulated start and end.
    """
    cluster = MonteCimoneCluster(enclosure_config=EnclosureConfig.mitigated())
    cluster.boot_all()
    deployment = ExamonDeployment(cluster)
    deployment.start()
    api = SlurmAPI(cluster.slurm)
    start = cluster.engine.now
    api.srun("hpl", "bench", 8, duration_s=duration_s, profile=HPL_PROFILE)
    return deployment, start, cluster.engine.now


def fig5_heatmaps(duration_s: float = 300.0):
    """Fig. 5: run HPL on all 8 nodes under ExaMon; return the heatmaps.

    Returns ``(instructions, network, memory)`` heatmap objects.
    """
    deployment, start, end = fig5_store(duration_s)
    window = max(duration_s / 30.0, 1.0)
    dashboard = deployment.dashboard
    return (dashboard.instructions_heatmap(start, end, window),
            dashboard.network_heatmap(start, end, window),
            dashboard.memory_heatmap(start, end, window))


@dataclass(frozen=True)
class ThermalRunawayResult:
    """Fig. 6 outcome."""

    tripped_nodes: List[str]
    trip_temperature_c: float
    pre_mitigation_hot_node: str
    pre_mitigation_hot_c: float
    post_mitigation_hot_node: str
    post_mitigation_hot_c: float
    job_outcome: str
    retry_outcome: str


def fig6_thermal_runaway(run_s: float = 1800.0) -> ThermalRunawayResult:
    """Fig. 6: the runaway with lids on, then the §V-C mitigation.

    Runs HPL on all 8 nodes in the original enclosure until node 7 trips,
    records the hottest *surviving* node (the paper's 71 °C point), applies
    the mitigation, services the tripped node and reruns.
    """
    cluster = MonteCimoneCluster(enclosure_config=EnclosureConfig.original())
    cluster.boot_all()
    deployment = ExamonDeployment(cluster)
    deployment.start()
    api = SlurmAPI(cluster.slurm)

    start = cluster.engine.now
    job = api.srun("hpl", "bench", 8, duration_s=run_s, profile=HPL_PROFILE)
    end = cluster.engine.now
    peaks = deployment.dashboard.peak_temperatures(start, end)
    tripped = cluster.watchdog.tripped_nodes()
    survivors = {host: temp for host, temp in peaks.items()
                 if host not in tripped}
    hot_host = max(survivors, key=survivors.get) if survivors else ""

    cluster.apply_thermal_mitigation()
    for hostname in tripped:
        cluster.service_node(hostname)

    retry_start = cluster.engine.now
    retry = api.srun("hpl-retry", "bench", 8, duration_s=run_s,
                     profile=HPL_PROFILE)
    retry_end = cluster.engine.now
    retry_peaks = deployment.dashboard.peak_temperatures(retry_start, retry_end)
    post_host = max(retry_peaks, key=retry_peaks.get)

    trip_events = [e for e in cluster.watchdog.events if e.kind == "trip"]
    trip_temp = trip_events[0].temperature_c if trip_events else float("nan")
    return ThermalRunawayResult(
        tripped_nodes=tripped,
        trip_temperature_c=trip_temp,
        pre_mitigation_hot_node=hot_host,
        pre_mitigation_hot_c=survivors.get(hot_host, float("nan")),
        post_mitigation_hot_node=post_host,
        post_mitigation_hot_c=retry_peaks[post_host],
        job_outcome=job.state.value,
        retry_outcome=retry.state.value)


# ---------------------------------------------------------------------------
# §III: Infiniband status
# ---------------------------------------------------------------------------
def infiniband_status():
    """The §III Infiniband bring-up snapshot."""
    fabric = InfinibandFabric()
    fabric.bring_up()
    return fabric.status()
