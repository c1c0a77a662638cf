"""The benchmark's four workloads, driven through the public ``repro`` API.

Each workload has a *set-up* (timed on its own, reported as ``setup_s``)
and an *iteration* (the timed part, reported as ``run_s``).  An iteration
times only the calls into the program; the output checks run after the
timer stops.  Every call goes through a module attribute (``trace_mod.
replay_trace``, not a name imported into this file), so the traced run's
probes see it.  README.md in this directory says why each workload exists
and which layer metrics it should move.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import repro.analysis.experiments as experiments
import repro.chaos.check as chaos_check
import repro.chaos.scenarios as chaos_scenarios
import repro.cluster.cluster as cluster_mod
import repro.examon.deployment as deployment_mod
import repro.examon.grafana as grafana_mod
import repro.power.model as power_model
import repro.slurm.api as slurm_api
import repro.slurm.trace as trace_mod
import repro.thermal.enclosure as enclosure_mod

__all__ = ["WORKLOADS", "Outcome", "Workload"]


@dataclass
class Outcome:
    """One timed iteration: its host time, operations and output counters."""

    elapsed_s: float
    attempted: int
    failed: int
    #: Deterministic output counters; equal across iterations and runs of
    #: one seed, or the benchmark reports nondeterminism.
    counters: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    #: Per-request host latencies (seconds), for request workloads.
    latencies_s: List[float] = field(default_factory=list)
    #: Per-layer counts only the workload can see (chaos results).
    layer_counts: Dict[str, float] = field(default_factory=dict)


def _digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _bring_up(enclosure: Any, with_examon: bool) -> Tuple[Any, Any]:
    """Build and boot the machine; start ExaMon on it when asked."""
    cluster = cluster_mod.MonteCimoneCluster(enclosure_config=enclosure)
    cluster.boot_all()
    deployment = None
    if with_examon:
        deployment = deployment_mod.ExamonDeployment(cluster)
        deployment.start()
    return cluster, deployment


class Workload:
    """Interface of a workload; see the subclasses."""

    name = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_reps = 15
    #: Whether every iteration needs a set-up of its own (it mutates it).
    fresh_state = False
    #: Whether the iterations use the set-up's state.  The paper drivers
    #: build their own machines: their set-up is timed, then dropped.
    uses_state = True
    #: Iterations repeat their inputs every ``cycle`` iterations.
    cycle = 1
    #: Entry points (``layers`` keys) that must record at least one call
    #: in the traced run, in its set-up or timed phase.
    expected_calls: Tuple[str, ...] = ()

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def iterate(self, state: Any, seed: int, index: int) -> Outcome:
        raise NotImplementedError


_WRITE_PATH = ("SamplingPlugin.sample_and_publish", "payload.encode_payload",
               "MQTTBroker.publish", "TimeSeriesDB.ingest",
               "payload.decode_payload", "TimeSeriesDB.insert",
               "PerfEventsInterface.read")
_NODE_PATH = ("ComputeNode.advance", "U74Core.advance", "RailSet.set_powers",
              "RailPowerModel.rail_powers_w", "NodeThermalModel.step",
              "ThermalWatchdog.observe", "SlurmController.submit",
              "SlurmController.schedule_pass", "Engine.step", "Engine.spawn")


class Fig6Runaway(Workload):
    """Fig. 6: 8-node HPL under ExaMon until node 7 trips, then the retry.

    The driver builds its own machine and is deterministic, so the seed is
    recorded but unused.  The set-up measured beside it is the driver's
    prologue: building and booting the original-enclosure machine and
    starting ExaMon on it.
    """

    name = "fig6_runaway"
    uses_state = False
    expected_calls = _WRITE_PATH + _NODE_PATH + (
        "Dashboard.peak_temperatures", "TimeSeriesDB.query",
        "SlurmAPI.srun", "MonteCimoneCluster.apply_thermal_mitigation",
        "MonteCimoneCluster.service_node")

    def setup(self, seed: int) -> Any:
        return _bring_up(enclosure_mod.EnclosureConfig.original(), True)

    def iterate(self, state: Any, seed: int, index: int) -> Outcome:
        start = time.perf_counter()
        result = experiments.fig6_thermal_runaway()
        elapsed = time.perf_counter() - start
        # The paper's Fig. 6 outcome, as benchmarks/test_fig6_thermal.py
        # asserts it.
        checks = {
            "node 7 alone trips": result.tripped_nodes == ["mc-node-7"],
            "trip near 107 C": abs(result.trip_temperature_c - 107.0) <= 0.5,
            "tripped job ends NF": result.job_outcome == "NF",
            "hot survivor near 71 C": (abs(result.pre_mitigation_hot_c - 71.0)
                                       <= 7.0
                                       and result.pre_mitigation_hot_c < 107.0),
            "mitigated near 39 C": abs(result.post_mitigation_hot_c - 39.0)
                                   <= 3.0,
            "retry ends CD": result.retry_outcome == "CD",
            "drop over 25 C": (result.pre_mitigation_hot_c
                               - result.post_mitigation_hot_c) > 25.0,
        }
        problems = [f"fig6: {name} fails: {result}"
                    for name, ok in checks.items() if not ok]
        return Outcome(elapsed, 1, int(bool(problems)),
                       {"fig6.result": repr(result)}, problems)


#: Simulated length of the Fig. 5 HPL run that fills the store, as
#: ``fig5_heatmaps`` and examples/monitoring_dashboard.py run it.
FIG5_DURATION_S = 300.0
_HEATMAPS = ("instructions_heatmap", "network_heatmap", "memory_heatmap")


@dataclass
class QueryStore:
    """A Fig. 5 store and the request stream to replay against it."""

    deployment: Any
    start_s: float
    end_s: float
    requests: List[Tuple[str, Dict[str, Any]]]


def _grafana_refresh(dashboard: Dict[str, Any]) -> List[Tuple[str, Dict]]:
    """The REST requests of one refresh of a Grafana dashboard definition."""
    return [(target["endpoint"], dict(target["params"]))
            for panel in dashboard["panels"] for target in panel["targets"]]


def make_requests(seed: int, deployment: Any, start_s: float,
                  end_s: float) -> List[Tuple[str, Dict[str, Any]]]:
    """The seeded request stream of one ``examon_query`` pass.

    Each client of the store in the repository makes its requests once,
    with the arguments it passes itself, over the Fig. 5 run.  The seed
    only draws the order of the clients.
    """
    schema = deployment.schema
    hosts = list(deployment.cluster.nodes)
    run = {"start_s": start_s, "end_s": end_s}
    clients = {
        # repro.analysis.experiments.fig5_heatmaps
        "fig5_heatmaps": [
            (kind, {**run, "window_s": max(FIG5_DURATION_S / 30.0, 1.0)})
            for kind in _HEATMAPS],
        # examples/monitoring_dashboard.py
        "monitoring_dashboard": [
            *[(kind, {**run, "window_s": 10.0}) for kind in _HEATMAPS],
            ("/api/aggregate", {
                "topic": schema.stats_topic("mc-node-1",
                                            "temperature.cpu_temp"),
                "start": start_s, "end": end_s, "window": 60.0,
                "how": "max"})],
        # fig6_thermal_runaway and examples/thermal_incident.py
        "peak_temperatures": [("peak_temperatures", run)],
        # One refresh of each dashboard repro.examon.grafana defines.
        "grafana_cluster": _grafana_refresh(
            grafana_mod.build_cluster_dashboard(hosts, schema)),
        "grafana_thermal": _grafana_refresh(
            grafana_mod.build_thermal_dashboard(hosts, schema)),
    }
    order = sorted(clients)
    random.Random(seed).shuffle(order)
    return [request for name in order for request in clients[name]]


def _is_empty(response: Any) -> bool:
    """A response with no data: every request of the stream expects some."""
    rows = getattr(response, "rows", None)
    if rows is not None:
        return all(v is None for row in rows.values() for v in row)
    return not response


class ExamonQuery(Workload):
    """Closed loop, one client: dashboard and REST reads of a Fig. 5 store.

    The set-up is the Fig. 5 ingest (8-node HPL for 300 simulated seconds
    under ExaMon), so ``setup_s`` carries the write path and the timed
    part the read path of the same store.  One iteration replays the
    whole request stream once.
    """

    name = "examon_query"
    setup_reps = 3
    expected_calls = _WRITE_PATH + (
        "Dashboard.instructions_heatmap", "Dashboard.network_heatmap",
        "Dashboard.memory_heatmap", "Dashboard.peak_temperatures",
        "ExamonRestAPI.get", "TimeSeriesDB.query", "TimeSeriesDB.aggregate",
        "TimeSeriesDB.rate", "SlurmAPI.srun")

    def setup(self, seed: int) -> QueryStore:
        cluster, deployment = _bring_up(
            enclosure_mod.EnclosureConfig.mitigated(), True)
        api = slurm_api.SlurmAPI(cluster.slurm)
        start = cluster.engine.now
        api.srun("hpl", "bench", 8, duration_s=FIG5_DURATION_S,
                 profile=power_model.HPL_PROFILE)
        end = cluster.engine.now
        return QueryStore(deployment, start, end, make_requests(
            seed, deployment, start, end))

    def iterate(self, state: QueryStore, seed: int, index: int) -> Outcome:
        dashboard = state.deployment.dashboard
        rest = state.deployment.rest
        clock = time.perf_counter
        responses: List[Any] = []
        latencies: List[float] = []
        for kind, params in state.requests:
            start = clock()
            try:
                if kind.startswith("/api/"):
                    response = rest.get(kind, params)
                else:
                    response = getattr(dashboard, kind)(**params)
            except Exception as exc:  # one failed request, not a failed run
                response = exc
            latencies.append(clock() - start)
            responses.append(response)
        problems = [f"{kind} {params}: {response!r}"
                    if isinstance(response, Exception)
                    else f"empty response to {kind} {params}"
                    for (kind, params), response in zip(state.requests,
                                                        responses)
                    if isinstance(response, Exception) or _is_empty(response)]
        counters = {f"request.{i:04d}": _digest(response)
                    for i, response in enumerate(responses)}
        return Outcome(sum(latencies), len(state.requests), len(problems),
                       counters, problems, latencies)


#: Shape of the ``job_trace`` trace, as examples/cluster_operations.py
#: generates it: 24 jobs submitted over 4 hours.
TRACE_JOBS = 24
TRACE_HORIZON_S = 4 * 3600.0
#: Simulated length of the shift: every iteration simulates this long, so
#: the idle tail after the last job does not vary with the seed.  The
#: longest makespan over seeds 0-119 is 22862 s.
SHIFT_S = 8 * 3600.0


def make_trace(seed: int) -> List[Any]:
    """The seeded submission stream of one shift.

    The jobs are those of ``generate_trace`` at its own fixed default
    seed, so every workload seed replays the same classes, sizes and
    users.  The workload seed only reorders the jobs and draws new
    submission times over the same horizon.
    """
    jobs = trace_mod.generate_trace(TRACE_JOBS, TRACE_HORIZON_S)
    rng = random.Random(seed)
    rng.shuffle(jobs)
    submits = sorted(rng.uniform(0.0, TRACE_HORIZON_S) for _ in jobs)
    return [dataclasses.replace(job, submit_time_s=submit)
            for job, submit in zip(jobs, submits)]


class JobTrace(Workload):
    """A shift of user jobs replayed through SLURM, without ExaMon.

    The set-up boots the mitigated machine with its thermal watchdog; the
    iteration replays the trace on it and simulates to the end of the
    shift.  Each iteration needs a fresh machine.
    """

    name = "job_trace"
    fresh_state = True
    expected_calls = _NODE_PATH + ("trace.replay_trace", "CoreComplex.idle")

    def setup(self, seed: int) -> Any:
        cluster, _ = _bring_up(enclosure_mod.EnclosureConfig.mitigated(),
                               False)
        return cluster

    def iterate(self, state: Any, seed: int, index: int) -> Outcome:
        trace = make_trace(seed)
        cluster = state
        start = time.perf_counter()
        shift_end = cluster.engine.now + SHIFT_S
        report = trace_mod.replay_trace(cluster.slurm, trace)
        if cluster.engine.now < shift_end:
            cluster.run_for(shift_end - cluster.engine.now)
        elapsed = time.perf_counter() - start
        problems = []
        if report.completed != len(trace):
            problems.append(f"job_trace: {report.completed} of {len(trace)} "
                            f"jobs completed: {report}")
        if report.makespan_s > SHIFT_S:
            problems.append(f"job_trace: makespan {report.makespan_s} s "
                            f"overruns the {SHIFT_S} s shift")
        return Outcome(elapsed, len(trace), len(trace) - report.completed,
                       {"trace.report": repr(report)}, problems)


#: Scenario seeds of a run: iteration i runs every scenario at
#: seed * CHAOS_SEEDS + i % CHAOS_SEEDS.
CHAOS_SEEDS = 8


class ChaosCampaign(Workload):
    """Every chaos scenario over seeds derived from the workload seed.

    The only workload on the failure paths: plugin buffering and
    backfill, broker rejects, MPI retry, queued LDAP/NFS logins and the
    node-trip requeue.  One iteration runs each scenario once at one
    derived seed.  The set-up measured beside it is the bring-up of the
    machine the scenarios start from.
    """

    name = "chaos_campaign"
    uses_state = False
    cycle = CHAOS_SEEDS
    expected_calls = (
        "scenarios.run_scenario", "check.run_checks", "FaultInjector.inject",
        "FaultInjector.restore", "SensorFaultInjector.restore",
        "LinkFaultInjector.restore", "ServiceOutageInjector.restore",
        "NodeTripInjector.schedule_at", "SamplingPlugin.sample_and_publish",
        "MQTTBroker.publish", "MPICostModel.allreduce", "LoginNode.ssh",
        "LoginNode.process_queued", "UserSession.sbatch",
        "UserSession.flush_deferred_writes", "LDAPServer.bind",
        "NFSServer.write", "MonteCimoneCluster.inject_node_failure",
        "SlurmController.node_failed", "Engine.step", "Engine.spawn")

    def setup(self, seed: int) -> Any:
        return _bring_up(enclosure_mod.EnclosureConfig.original(), True)

    def iterate(self, state: Any, seed: int, index: int) -> Outcome:
        scenario_seed = seed * CHAOS_SEEDS + index % CHAOS_SEEDS
        elapsed = 0.0
        problems: List[str] = []
        counters: Dict[str, Any] = {}
        failed = injected = recovered = 0
        for name in sorted(chaos_scenarios.SCENARIOS):
            label = f"{name}@{scenario_seed}"
            start = time.perf_counter()
            try:
                result = chaos_scenarios.run_scenario(name, scenario_seed)
                found = chaos_check.run_checks(result)
            except Exception as exc:  # one failed scenario, not the run
                elapsed += time.perf_counter() - start
                problems.append(f"{label}: {type(exc).__name__}: {exc}")
                failed += 1
                continue
            elapsed += time.perf_counter() - start
            failed += bool(found)
            problems += [f"{label}: {p}" for p in found]
            faults = len(result.log.injections())
            recoveries = sum(span.category == "chaos.recovery"
                             for span in result.tracer.spans)
            injected += faults
            recovered += recoveries
            counters[label] = (faults, recoveries, len(found),
                               _digest(result.log.dumps()))
        return Outcome(elapsed, len(chaos_scenarios.SCENARIOS), failed,
                       counters, problems, layer_counts={
                           "chaos.faults_injected": injected,
                           "chaos.recoveries": recovered,
                           "chaos.violations": len(problems)})


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in
    (Fig6Runaway(), ExamonQuery(), JobTrace(), ChaosCampaign())}
