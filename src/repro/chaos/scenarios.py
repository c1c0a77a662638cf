"""Canned chaos campaigns over the simulated Monte Cimone cluster.

Each scenario builds a fresh engine + cluster slice, attaches the
tracer, draws its fault windows from a :class:`ChaosSchedule` seeded by
the caller, runs the campaign and returns a :class:`ChaosRunResult`
carrying everything the invariant checker
(:func:`repro.chaos.check.run_checks`) needs.  Scenarios are pure
functions of their seed: two runs with the same seed produce
byte-identical chaos logs (the CLI's determinism contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List

from repro.chaos.faults import ChaosLog
from repro.chaos.injectors import (BrokerOutageInjector, LinkFaultInjector,
                                   NodeTripInjector, SensorFaultInjector,
                                   ServiceOutageInjector)
from repro.chaos.schedule import ChaosSchedule
from repro.cluster.cluster import MonteCimoneCluster
from repro.cluster.login import LoginNode
from repro.cluster.node import ComputeNode
from repro.events.engine import Engine, Event
from repro.examon.broker import MQTTBroker
from repro.examon.deployment import ExamonDeployment
from repro.examon.plugins.stats_pub import StatsPubPlugin
from repro.network.mpi import MPICostModel, run_collective_with_retry
from repro.network.topology import ClusterTopology
from repro.obs.instrument import attach_tracer

__all__ = ["ChaosRunResult", "SCENARIOS", "run_scenario"]


@dataclass
class ChaosRunResult:
    """One finished campaign, ready for the invariant checker."""

    name: str
    seed: int
    engine: Engine
    tracer: Any
    log: ChaosLog
    extras: Dict[str, Any] = field(default_factory=dict)


def _finish_boot(node: ComputeNode) -> None:
    """Shortcut boot (R1→R2→R3 at t=0): scenarios start from a live node."""
    node.power_on(0.0)
    node.start_bootloader(0.0)
    node.finish_boot(0.0)


def scenario_examon_outage(seed: int = 0) -> ChaosRunResult:
    """The monitoring transport dies twice; daemons buffer and backfill.

    Asserts (through extras): pmu_pub series on the first node cover
    both outage windows at sampling cadence — the timestamped backfill,
    not a hole.
    """
    engine = Engine()
    cluster = MonteCimoneCluster(engine)
    for node in cluster.nodes.values():
        _finish_boot(node)
    tracer = attach_tracer(engine)
    deployment = ExamonDeployment(cluster)
    deployment.start()

    schedule = ChaosSchedule(seed)
    windows = schedule.windows(2, start_s=10.0, end_s=100.0,
                               min_len_s=8.0, max_len_s=20.0)
    log = ChaosLog()
    injector = BrokerOutageInjector(engine, log, deployment.broker)
    for start_s, end_s in windows:
        injector.schedule_window(start_s, end_s)

    engine.run(until=140.0)
    deployment.stop()
    engine.run(until=146.0)

    schema = deployment.schema
    first_node = next(iter(cluster.nodes))
    first_node_topics = [
        topic for topic in deployment.db.topics(
            schema.all_nodes_pattern("pmu_pub"))
        if schema.parse(topic)["node"] == first_node]
    problems: List[str] = []
    plugins = list(deployment.pmu_plugins.values())
    if not any(p.samples_backfilled for p in plugins):
        problems.append("no plugin ever backfilled — outage not exercised")
    return ChaosRunResult(
        name="examon-outage", seed=seed, engine=engine, tracer=tracer,
        log=log,
        extras={
            "windows": windows,
            "db": deployment.db,
            "backfill": {
                "db": deployment.db,
                "topics": first_node_topics,
                "windows": windows,
                "period_s": plugins[0].period_s,
            },
            "publish_rejects": deployment.broker.publish_rejects,
            "samples_backfilled": sum(p.samples_backfilled for p in plugins),
            "problems": problems,
        })


def scenario_link_flap(seed: int = 0) -> ChaosRunResult:
    """One node's GbE link flaps under a steady collective workload.

    Collectives run every second through the retry-with-timeout path;
    a second link additionally spends a window at degraded bandwidth.
    """
    engine = Engine()
    tracer = attach_tracer(engine)
    names = [f"mc-node-{i + 1}" for i in range(4)]
    topology = ClusterTopology(names)
    model = MPICostModel(topology)

    schedule = ChaosSchedule(seed)
    victim = schedule.choice(names)
    windows = schedule.windows(3, start_s=8.0, end_s=68.0,
                               min_len_s=3.0, max_len_s=6.0)
    degraded_start = 70.0 + schedule.uniform(0.0, 2.0)
    degraded_window = (degraded_start, degraded_start + 6.0)
    other = names[(names.index(victim) + 1) % len(names)]

    log = ChaosLog()
    down = LinkFaultInjector(engine, log, topology.links[victim], mode="down")
    for start_s, end_s in windows:
        down.schedule_window(start_s, end_s)
    degraded = LinkFaultInjector(engine, log, topology.links[other],
                                 mode="degraded", factor=4.0)
    degraded.schedule_window(*degraded_window)

    results: List[Dict[str, float]] = []

    def driver() -> Generator[Event, Any, None]:
        while engine.now < 85.0:
            outcome = yield from run_collective_with_retry(
                engine, model, "allreduce", n_bytes=1 << 20, n_ranks=4)
            results.append(outcome)
            yield engine.timeout(1.0)

    engine.spawn(driver(), name="mpi-driver")
    engine.run(until=90.0)

    problems: List[str] = []
    if not any(r["retries"] > 0 for r in results):
        problems.append("no collective ever retried — flap not exercised")
    if topology.links[other].degraded_factor != 1.0:
        problems.append(f"{other}'s link still degraded after restore")
    return ChaosRunResult(
        name="link-flap", seed=seed, engine=engine, tracer=tracer, log=log,
        extras={
            "windows": windows,
            "degraded_window": degraded_window,
            "victim": victim,
            "collectives": len(results),
            "retries": sum(int(r["retries"]) for r in results),
            "problems": problems,
        })


def scenario_sensor_dropout(seed: int = 0) -> ChaosRunResult:
    """Table IV sensors misbehave under a live stats_pub daemon.

    The CPU sensor drops off the bus (reads fail, the daemon skips the
    metric and reports recovery at its first good read); the board sensor
    freezes (silent — the injector records the repair itself).
    """
    engine = Engine()
    tracer = attach_tracer(engine)
    node = ComputeNode(hostname="mc-node-1")
    _finish_boot(node)
    broker = MQTTBroker(hostname="mc-master")
    plugin = StatsPubPlugin(node, broker, sample_hz=1.0)
    engine.spawn(plugin.run(engine), name="stats_pub@mc-node-1")

    schedule = ChaosSchedule(seed)
    dropout_window = schedule.windows(1, start_s=5.0, end_s=25.0,
                                      min_len_s=6.0, max_len_s=10.0)[0]
    stuck_window = schedule.windows(1, start_s=30.0, end_s=50.0,
                                    min_len_s=6.0, max_len_s=10.0)[0]
    log = ChaosLog()
    sensors = node.board.hwmon.sensors
    dropout = SensorFaultInjector(engine, log, node, "cpu_temp",
                                  mode="dropout")
    dropout.schedule_window(*dropout_window)
    stuck = SensorFaultInjector(engine, log, node, "mb_temp", mode="stuck")
    stuck.schedule_window(*stuck_window)

    engine.run(until=60.0)
    plugin.stop()
    engine.run(until=62.0)

    problems: List[str] = []
    if plugin.sensor_faults == 0:
        problems.append("daemon never observed a failed sensor read")
    if not sensors["cpu_temp"].healthy or not sensors["mb_temp"].healthy:
        problems.append("a sensor is still faulty after restore")
    return ChaosRunResult(
        name="sensor-dropout", seed=seed, engine=engine, tracer=tracer,
        log=log,
        extras={
            "dropout_window": dropout_window,
            "stuck_window": stuck_window,
            "sensor_faults": plugin.sensor_faults,
            "problems": problems,
        })


def scenario_service_outage(seed: int = 0) -> ChaosRunResult:
    """LDAP then NFS go down under live users; the front door queues.

    A login during the LDAP window is parked and replayed on restore; a
    batch submission during the NFS window still reaches SLURM while its
    home-directory archive write is deferred and flushed on restore.
    """
    engine = Engine()
    cluster = MonteCimoneCluster(engine)
    for node in cluster.nodes.values():
        _finish_boot(node)
    tracer = attach_tracer(engine)
    cluster.ldap.add_user("alice", "alice-pw", "hpc-users")
    cluster.ldap.add_user("bob", "bob-pw", "hpc-users")
    login = LoginNode(cluster.ldap, cluster.nfs, cluster.modules,
                      cluster.slurm)

    schedule = ChaosSchedule(seed)
    ldap_window = schedule.windows(1, start_s=10.0, end_s=30.0,
                                   min_len_s=8.0, max_len_s=15.0)[0]
    nfs_window = schedule.windows(1, start_s=40.0, end_s=65.0,
                                  min_len_s=10.0, max_len_s=18.0)[0]
    log = ChaosLog()
    state: Dict[str, Any] = {}

    def on_ldap_restore() -> Dict[str, Any]:
        return {"logins_replayed": len(login.process_queued())}

    def on_nfs_restore() -> Dict[str, Any]:
        session = state.get("alice")
        flushed = session.flush_deferred_writes() if session else 0
        return {"writes_flushed": flushed}

    ldap_injector = ServiceOutageInjector(engine, log, cluster.ldap,
                                          on_restore=on_ldap_restore)
    ldap_injector.schedule_window(*ldap_window)
    nfs_injector = ServiceOutageInjector(engine, log, cluster.nfs,
                                         on_restore=on_nfs_restore)
    nfs_injector.schedule_window(*nfs_window)

    script = ("#!/bin/bash\n#SBATCH --job-name=chaos-probe\n"
              "#SBATCH --nodes=1\nsleep 5\n")

    def alice_login() -> None:
        state["alice"] = login.ssh("alice", "alice-pw")

    def bob_login() -> None:
        state["bob_ticket"] = login.ssh("bob", "bob-pw")

    def alice_sbatch() -> None:
        state["job_id"] = state["alice"].sbatch(script, duration_s=5.0)

    engine.call_at(5.0, alice_login)
    engine.call_at(ldap_window[0] + 1.0, bob_login)
    engine.call_at(nfs_window[0] + 1.0, alice_sbatch)
    engine.run(until=90.0)

    problems: List[str] = []
    ticket = state.get("bob_ticket")
    if ticket is None or getattr(ticket, "session", None) is None:
        problems.append("queued login was never replayed into a session")
    session = state.get("alice")
    if session is None:
        problems.append("baseline login failed outside any outage")
    elif session.deferred_writes:
        problems.append("deferred home-directory writes were never flushed")
    elif not cluster.nfs.listdir("/home/alice/jobs"):
        problems.append("archived batch script missing after NFS restore")
    if "job_id" not in state:
        problems.append("sbatch during the NFS outage never reached SLURM")
    return ChaosRunResult(
        name="service-outage", seed=seed, engine=engine, tracer=tracer,
        log=log,
        extras={
            "ldap_window": ldap_window,
            "nfs_window": nfs_window,
            "job_id": state.get("job_id"),
            "problems": problems,
        })


def scenario_node_trip(seed: int = 0) -> ChaosRunResult:
    """A compute node trips on temperature; SLURM drains and resumes it."""
    engine = Engine()
    cluster = MonteCimoneCluster(engine)
    for node in cluster.nodes.values():
        _finish_boot(node)
    tracer = attach_tracer(engine)
    cluster.enable_auto_recovery(delay_s=30.0)

    schedule = ChaosSchedule(seed)
    victim = schedule.choice(sorted(cluster.nodes))
    trip_at = schedule.uniform(10.0, 30.0)
    log = ChaosLog()
    injector = NodeTripInjector(engine, log, cluster, victim)
    injector.schedule_at(trip_at)

    while injector.recovered_at_s is None and engine.now < 3600.0:
        cluster.run_for(60.0)

    problems: List[str] = []
    if injector.recovered_at_s is None:
        problems.append(f"{victim} never returned to the schedulable pool")
    return ChaosRunResult(
        name="node-trip", seed=seed, engine=engine, tracer=tracer, log=log,
        extras={
            "victim": victim,
            "trip_at": trip_at,
            "recovered_at_s": injector.recovered_at_s,
            "problems": problems,
        })


#: Scenario registry driven by ``python -m repro chaos <name>``.
SCENARIOS: Dict[str, Callable[[int], ChaosRunResult]] = {
    "examon-outage": scenario_examon_outage,
    "link-flap": scenario_link_flap,
    "sensor-dropout": scenario_sensor_dropout,
    "service-outage": scenario_service_outage,
    "node-trip": scenario_node_trip,
}


def run_scenario(name: str, seed: int = 0) -> ChaosRunResult:
    """Run one named campaign (KeyError lists the valid names)."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"choose from {sorted(SCENARIOS)}")
    return SCENARIOS[name](seed)
