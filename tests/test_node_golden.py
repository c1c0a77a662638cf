"""Golden digests of the simulated node's full state and of Figs. 3-4.

Any change to the per-second node tick (core counters, rail powers,
procfs accounting, thermal RCs, phase modulation) must reproduce these
outputs exactly.  Each digest is the SHA-256 of a canonical text
rendering in which every float appears as its ``repr``, so a one-ulp
change anywhere shows up.

* Every node of the machine after a short seeded job replay through
  SLURM (about two simulated hours, with the thermal watchdog).
* The same under dynamic thermal management, which throttles nodes
  through ``set_frequency_scale``.
* A node tripped mid-job and serviced back into the pool.
* A node tripped hot and serviced at once, so the service waits for it
  to cool before the reboot.
* A DTM run with per-job energy accounting, in which a stuck ``mb_temp``
  and a ``cpu_temp`` dropout land on the idle node and the §V-C
  mitigation is applied while it idles; the digest adds the energy
  ledger and every node's retired instructions.
* The Fig. 3 benchmark power series and the Fig. 4 boot traces.
* The scalar phase modulation on a grid of sample times.
"""

import pytest

from repro.chaos.faults import ChaosLog
from repro.chaos.injectors import SensorFaultInjector
from repro.cluster.cluster import MonteCimoneCluster
from repro.power.energy import JobEnergyAccounting
from repro.power.model import (
    HPL_PROFILE,
    QE_PROFILE,
    STREAM_DDR_PROFILE,
    STREAM_L2_PROFILE,
)
from repro.power.traces import RAIL_GROUPS, TraceSynthesizer, activity_modulation
from repro.slurm.trace import TraceEntry, replay_trace
from repro.thermal.dtm import ClusterDTM
from repro.thermal.enclosure import EnclosureConfig
from tests.golden import digest

NODE_DIGESTS = {
    "replay":
        "dbf3673e0bdb95dc483cdf6f09e687b4bdbb15ae9f81bd29c8df6aeb3da742f8",
    "dtm":
        "5c5c217147b4c9e509d98c52ce98434dec2cc16a0c6eb7c55bdc431a66c152d7",
    "trip_and_service":
        "c4a7330b2aacbd07754e3a06d4b67bb6de385e14e615f7a9edb52c87743291a9",
    "service_cooldown":
        "6a8d5ed0ca06d627ffe909a52950b26db29d4bcdde9633eaf98f87da8c858f34",
    "settle_points":
        "083e150292072d3f2a3c3c948cccd7fcf577d56926375d395d8da8bb84356cf8",
}

FIG3_DIGEST = (
    "3b9cfb8912e24f6f3ccc32f673fa9c1dbca1d2e9bfe940301cf67536047c43d9")
FIG4_DIGEST = (
    "1060e1ba0c74a5597f3cbe1b42f963e081188b69d0f577b0d68c444a86a0d47e")
MODULATION_DIGEST = (
    "2c72f1abbd6fc088620744aefa970ec1fa4697934d804dc2a4a58ea0fccb41cc")

#: A few jobs of every Table VI workload class, single- and multi-node,
#: over about two simulated hours.
TRACE = [
    TraceEntry(0.0, "hpl-a", "alice", 4, 1800.0, HPL_PROFILE),
    TraceEntry(120.0, "stream-a", "bob", 1, 600.0, STREAM_DDR_PROFILE),
    TraceEntry(300.0, "qe-a", "carol", 2, 900.0, QE_PROFILE),
    TraceEntry(900.0, "l2-a", "bob", 1, 450.0, STREAM_L2_PROFILE),
    TraceEntry(1500.0, "hpl-b", "alice", 8, 2400.0, HPL_PROFILE),
    TraceEntry(2000.0, "qe-b", "carol", 1, 300.0, QE_PROFILE),
]


def node_state_lines(node):
    """Every counter, rail, procfs field and temperature of one node."""
    node.settle()
    lines = [f"{node.hostname} {node.state.value} {node.phase.value} "
             f"{node.active_profile.name} {node.frequency_scale!r}"]
    for core in node.board.cores:
        lines.append(repr(core.hpm.snapshot()))
    for rail in node.board.rails:
        lines.append(f"{rail.name} {rail.power_w!r} {rail.energy_j!r}")
    procfs = node.procfs
    cpu = procfs.cpu
    lines.append(" ".join(repr(v) for v in (
        cpu.usr, cpu.sys, cpu.idl, cpu.wai, cpu.stl,
        procfs.load_1m, procfs.load_5m, procfs.load_15m,
        procfs.interrupts_total, procfs.context_switches_total,
        procfs.mem_used, procfs.mem_free, procfs.mem_buff, procfs.mem_cach)))
    thermal = node.thermal
    lines.append(" ".join(repr(rc.temperature_c) for rc in (
        thermal.soc, thermal.motherboard, thermal.nvme)))
    hwmon = node.board.hwmon
    lines.append(" ".join(f"{name}={hwmon.read_celsius(name)!r}"
                          for name in sorted(hwmon.sensors)))
    return lines


def cluster_digest(cluster, extra=()):
    lines = [repr(cluster.engine.now), *extra]
    for node in cluster.nodes.values():
        lines.extend(node_state_lines(node))
    return digest(lines)


def _booted(config):
    cluster = MonteCimoneCluster(enclosure_config=config)
    cluster.boot_all()
    return cluster


def run_replay():
    cluster = _booted(EnclosureConfig.mitigated())
    report = replay_trace(cluster.slurm, TRACE)
    cluster.run_for(7200.0 - cluster.engine.now)
    return cluster_digest(cluster, [repr(report)])


def run_dtm():
    # The runaway-prone enclosure with a low setpoint, so every node's
    # governor steps its clock down and back up during the run.
    cluster = _booted(EnclosureConfig.original())
    dtm = ClusterDTM(cluster.nodes, throttle_c=55.0, release_c=50.0)
    dtm.start(cluster.engine)
    report = replay_trace(cluster.slurm, TRACE[:3])
    cluster.run_for(600.0)
    events = dtm.all_events()
    assert events, "the governors never throttled"
    return cluster_digest(cluster, [repr(report), repr(events)])


def run_trip_and_service():
    # A --requeue job loses a node mid-run; the node is serviced back
    # into the pool while the job's second attempt runs elsewhere.
    cluster = _booted(EnclosureConfig.mitigated())
    job = cluster.slurm.submit(name="hpl", user="alice", n_nodes=4,
                               duration_s=1200.0, profile=HPL_PROFILE,
                               requeue=True)
    cluster.run_for(400.0)
    victim = job.allocated_nodes[0]
    cluster.inject_node_failure(victim)
    cluster.run_for(120.0)
    cluster.service_node(victim)
    cluster.run_for(2400.0)
    return cluster_digest(cluster, [victim, repr(job.state), repr(job.attempts)])


def run_service_cooldown():
    # An 8-node --requeue HPL run in the runaway-prone enclosure loses a
    # hot node at t=300 s, which is serviced at once: the service spends
    # 54 ten-second polls waiting for the board to cool below 32 °C.  The
    # resume's scheduling pass starts the second attempt at once (861 s);
    # mc-node-7's runaway trips it at 1317 s, and the job waits again.
    cluster = _booted(EnclosureConfig.original())
    job = cluster.slurm.submit(name="hpl", user="alice", n_nodes=8,
                               duration_s=600.0, profile=HPL_PROFILE,
                               requeue=True)
    cluster.run_for(300.0 - cluster.engine.now)
    victim = "mc-node-3"
    assert victim in job.allocated_nodes
    cluster.inject_node_failure(victim)
    cluster.service_node(victim)
    cluster.run_for(1500.0)
    return cluster_digest(cluster, [victim, repr(job.state), repr(job.attempts)])


def run_settle_points():
    # The runaway-prone enclosure under DTM, with per-job energy
    # accounting.  mc-node-8 idles while the first four jobs run: its
    # board sensor sticks and its SoC sensor drops out in windows that
    # open and close between watchdog ticks, and the mitigation lands
    # while it idles and mc-node-5 runs a job.
    cluster = _booted(EnclosureConfig.original())
    engine = cluster.engine
    start = engine.now
    ledger = JobEnergyAccounting(cluster.slurm)
    dtm = ClusterDTM(cluster.nodes, throttle_c=55.0, release_c=50.0)
    dtm.start(engine)
    log = ChaosLog()
    idle_node = cluster.nodes["mc-node-8"]
    SensorFaultInjector(engine, log, idle_node, "mb_temp",
                        mode="stuck").schedule_window(
        start + 400.5, start + 700.25)
    SensorFaultInjector(engine, log, idle_node, "cpu_temp",
                        mode="dropout").schedule_window(
        start + 450.75, start + 650.5)
    engine.call_at(start + 1000.5, cluster.apply_thermal_mitigation)
    report = replay_trace(cluster.slurm, TRACE[:4])
    cluster.run_for(600.3)
    records = [f"{r.job_id} {r.energy_j!r} {sorted(r.per_rail_j.items())!r}"
               for r in ledger.ledger]
    instructions = []
    for hostname, node in cluster.nodes.items():
        node.settle()
        instructions.append(
            f"{hostname} {node.board.cores.total_instructions()}")
    return cluster_digest(cluster, [repr(report), repr(dtm.all_events()),
                                    log.dumps(), *records, *instructions])


@pytest.mark.parametrize("case,run", [
    ("replay", run_replay),
    ("dtm", run_dtm),
    ("trip_and_service", run_trip_and_service),
    ("service_cooldown", run_service_cooldown),
    ("settle_points", run_settle_points),
])
def test_node_state_digest(case, run):
    assert run() == NODE_DIGESTS[case]


def test_fig3_series_digest():
    traces = TraceSynthesizer().all_benchmark_traces()
    lines = []
    for workload, groups in traces.items():
        for group, trace in groups.items():
            lines.append(f"{workload}/{group}")
            lines.extend(repr(p) for p in trace.power_w.tolist())
    assert digest(lines) == FIG3_DIGEST


def test_fig4_boot_trace_digest():
    synth = TraceSynthesizer()
    lines = []
    for group in RAIL_GROUPS:
        trace = synth.boot_trace(group)
        lines.append(f"boot/{group}")
        lines.extend(repr(p) for p in trace.power_w.tolist())
    assert digest(lines) == FIG4_DIGEST


def test_activity_modulation_digest():
    lines = [repr(activity_modulation(workload, t / 64.0))
             for workload in ("idle", "hpl", "stream_l2", "stream_ddr", "qe",
                              "unknown")
             for t in range(0, 64 * 40)]
    assert digest(lines) == MODULATION_DIGEST
