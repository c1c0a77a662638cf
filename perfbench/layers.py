"""Per-layer host-time attribution for the benchmark's traced run.

The traced run wraps the public entry points of each ``repro`` layer
(``ENTRY_POINTS``) in a timing probe installed from this file; the program
itself carries no benchmark code.  A probe records, per entry point, the
number of calls, the number of calls that raised, and the *self time*:
host seconds inside the call minus the host seconds of wrapped calls made
from inside it.  Self times therefore add up to the time covered by the
outermost wrapped calls, and the rest of a timed phase is reported as
``unattributed_s``.

A function is wrapped at every module-level name it is bound to in the
loaded ``repro`` modules, not only where it is defined:
``from repro.examon.payload import encode_payload`` in the plugin base
class is a second binding that a patch of ``repro.examon.payload`` alone
would miss, and the probe would read zero.  An entry point that no longer
exists is reported in ``LayerTracer.missing``, never skipped.

Generator functions are not wrapped: a probe around one would time the
creation of the generator, not its work.  The bodies of simulation
processes (the SLURM job loop, the cluster's thermal watchdog) run inside
``Engine.step`` between their wrapped calls, so their own time counts as
``events.self_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ENTRY_POINTS", "LAYER_METRICS", "LayerTracer"]

#: (time metric, "module" or "module:Class", entry-point names).  Only
#: calls that cross from one layer into another need a probe: a layer's
#: internal helpers run inside its entry points and count as its self time.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    # ExaMon write path: sample -> encode -> publish -> decode -> insert.
    ("examon.plugins.self_s", "repro.examon.plugins.base:SamplingPlugin",
     ("__init__", "publish_once", "sample_and_publish")),
    ("examon.payload.self_s", "repro.examon.payload",
     ("encode_payload", "decode_payload")),
    ("examon.broker.self_s", "repro.examon.broker:MQTTBroker",
     ("__init__", "subscribe", "publish")),
    ("examon.tsdb.insert_s", "repro.examon.tsdb:TimeSeriesDB",
     ("__init__", "attach", "ingest", "insert")),
    # ExaMon read path.
    ("examon.tsdb.query_s", "repro.examon.tsdb:TimeSeriesDB",
     ("topics", "query", "latest", "aggregate", "rate")),
    ("examon.dashboard.self_s", "repro.examon.dashboard:Dashboard",
     ("instructions_heatmap", "network_heatmap", "memory_heatmap",
      "thermal_timeline", "peak_temperatures")),
    ("examon.rest.self_s", "repro.examon.rest:ExamonRestAPI",
     ("__init__", "get")),
    # The simulated node.
    ("hardware.self_s", "repro.hardware.hpm:PerfEventsInterface",
     ("read", "read_all", "available_events")),
    ("hardware.self_s", "repro.hardware.cores:U74Core", ("advance",)),
    ("hardware.self_s", "repro.hardware.cores:CoreComplex", ("idle",)),
    ("hardware.self_s", "repro.hardware.rails:RailSet",
     ("set_powers", "total_w")),
    ("hardware.self_s", "repro.hardware.sensors:HwmonTree",
     ("read", "read_celsius", "set_celsius")),
    ("hardware.self_s", "repro.hardware.memory:DDR4Subsystem", ("usage",)),
    ("hardware.self_s", "repro.hardware.board:HiFiveUnmatched",
     ("sync_nvme_temperature",)),
    ("cluster.self_s", "repro.cluster.node:ComputeNode",
     ("advance", "sync_to", "begin_workload", "end_workload",
      "emergency_shutdown", "cpu_temperature_c", "total_power_w")),
    ("cluster.self_s", "repro.cluster.cluster:MonteCimoneCluster",
     ("__init__", "boot_all", "inject_node_failure",
      "apply_thermal_mitigation", "service_node", "run_for")),
    ("power.self_s", "repro.power.model:RailPowerModel", ("rail_powers_w",)),
    ("power.self_s", "repro.power.traces", ("activity_modulation",)),
    ("thermal.self_s", "repro.thermal.model:NodeThermalModel", ("step",)),
    ("thermal.self_s", "repro.thermal.runaway:ThermalWatchdog",
     ("__init__", "observe")),
    ("slurm.self_s", "repro.slurm.scheduler:SlurmController",
     ("__init__", "submit", "cancel", "schedule_pass", "node_failed")),
    ("slurm.self_s", "repro.slurm.api:SlurmAPI", ("srun", "wait_all")),
    ("slurm.self_s", "repro.slurm.trace", ("replay_trace",)),
    ("events.self_s", "repro.events.engine:Engine",
     ("run", "run_until_complete", "step", "spawn", "call_at")),
    ("network.self_s", "repro.network.mpi:MPICostModel",
     ("point_to_point", "broadcast", "allreduce", "ring_exchange",
      "scatter")),
    ("services.self_s", "repro.cluster.login:LoginNode",
     ("ssh", "process_queued")),
    ("services.self_s", "repro.cluster.login:UserSession",
     ("sbatch", "write_file", "flush_deferred_writes")),
    ("services.self_s", "repro.cluster.services.nfs:NFSServer",
     ("mkdir", "write", "read", "listdir")),
    ("services.self_s", "repro.cluster.services.ldap:LDAPServer",
     ("add_user", "bind")),
    ("chaos.self_s", "repro.chaos.scenarios", ("run_scenario",)),
    ("chaos.self_s", "repro.chaos.check", ("run_checks",)),
    ("chaos.self_s", "repro.chaos.injectors:FaultInjector",
     ("inject", "restore", "schedule_window")),
    ("chaos.self_s", "repro.chaos.injectors:SensorFaultInjector",
     ("restore",)),
    ("chaos.self_s", "repro.chaos.injectors:LinkFaultInjector", ("restore",)),
    ("chaos.self_s", "repro.chaos.injectors:ServiceOutageInjector",
     ("restore",)),
    ("chaos.self_s", "repro.chaos.injectors:NodeTripInjector",
     ("schedule_at",)),
)

#: Count metrics read from probe call counts: metric -> entry-point keys.
CALL_COUNTS: Dict[str, Tuple[str, ...]] = {
    "examon.payload.encodes": ("payload.encode_payload",),
    "examon.payload.decodes": ("payload.decode_payload",),
    "hardware.hpm_reads": ("PerfEventsInterface.read",
                           "PerfEventsInterface.read_all"),
    "hardware.core_advances": ("U74Core.advance",),
    "cluster.node_advances": ("ComputeNode.advance",),
    "power.rail_evals": ("RailPowerModel.rail_powers_w",),
    "thermal.steps": ("NodeThermalModel.step",),
    "slurm.schedule_passes": ("SlurmController.schedule_pass",),
    "events.spawns": ("Engine.spawn",),
}

#: Count metrics read from the number of calls that raised: a collective
#: raises ``LinkDownError`` once per attempt over a down link, and
#: ``run_collective_with_retry`` turns each such attempt into a retry.
RAISED_COUNTS: Dict[str, Tuple[str, ...]] = {
    "network.mpi_retries": ("MPICostModel.point_to_point",
                            "MPICostModel.broadcast",
                            "MPICostModel.allreduce",
                            "MPICostModel.ring_exchange",
                            "MPICostModel.scatter"),
}

#: Classes whose instances the traced run keeps, to sum the program's own
#: deterministic counters at the end of each phase.
CAPTURED = ("MQTTBroker", "TimeSeriesDB", "SamplingPlugin", "ExamonRestAPI",
            "SlurmController", "ThermalWatchdog")


def _program_counters(instances: Dict[str, List[Any]]) -> Dict[str, float]:
    """The program's own work counters, summed over captured instances."""
    def total(kind: str, attribute: str) -> float:
        return float(sum(getattr(obj, attribute) for obj in instances[kind]))

    jobs = [job for controller in instances["SlurmController"]
            for job in controller.jobs.values()]
    return {
        "examon.plugins.samples": total("SamplingPlugin", "samples_taken"),
        "examon.plugins.samples_buffered": total("SamplingPlugin",
                                                 "samples_buffered"),
        "examon.plugins.samples_backfilled": total("SamplingPlugin",
                                                   "samples_backfilled"),
        "examon.broker.messages_published": total("MQTTBroker",
                                                  "messages_published"),
        "examon.broker.messages_delivered": total("MQTTBroker",
                                                  "messages_delivered"),
        "examon.broker.publish_rejects": total("MQTTBroker",
                                               "publish_rejects"),
        "examon.tsdb.points_stored": total("TimeSeriesDB", "points_stored"),
        "examon.tsdb.decode_errors": total("TimeSeriesDB", "decode_errors"),
        "examon.rest.requests": total("ExamonRestAPI", "requests_served"),
        "slurm.jobs_completed": float(sum(job.state.value == "CD"
                                          for job in jobs)),
        "slurm.jobs_failed": float(sum(job.state.value in ("F", "NF", "TO")
                                       for job in jobs)),
        "slurm.requeues": float(sum(job.restart_count for job in jobs)),
        "thermal.trips": float(sum(event.kind == "trip"
                                   for watchdog in instances["ThermalWatchdog"]
                                   for event in watchdog.events)),
    }


#: Every per-layer metric the traced run reports, in report order.
LAYER_METRICS: Tuple[str, ...] = (
    *dict.fromkeys(metric for metric, _target, _names in ENTRY_POINTS),
    *CALL_COUNTS, *RAISED_COUNTS,
    *_program_counters({kind: [] for kind in CAPTURED}),
    "examon.plugins.backfill_ratio", "unattributed_s",
)


class _Probe:
    __slots__ = ("key", "metric", "calls", "raised", "self_s")

    def __init__(self, key: str, metric: str) -> None:
        self.key = key
        self.metric = metric
        self.calls = 0
        self.raised = 0
        self.self_s = 0.0


_WRAPPED_MARK = "__perfbench_original__"


def _is_repro_module(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


class LayerTracer:
    """Installs, reads and removes the entry-point probes."""

    def __init__(self) -> None:
        self.probes: Dict[str, _Probe] = {}
        self.missing: List[str] = []
        self.instances: Dict[str, List[Any]] = {kind: [] for kind in CAPTURED}
        #: Child-time accumulators; the bottom one collects the time of
        #: outermost calls (the time some probe covers).
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point; unknown ones go to :attr:`missing`."""
        targets = {}
        for _metric, target, _names in ENTRY_POINTS:
            module_name = target.partition(":")[0]
            try:
                targets[module_name] = importlib.import_module(module_name)
            except ImportError:
                targets[module_name] = None
        # Every import is done before the first patch, so no module can
        # bind a wrapper by importing it during installation.
        modules = [module for name, module in sorted(sys.modules.items())
                   if _is_repro_module(name) and module is not None]
        for metric, target, names in ENTRY_POINTS:
            module_name, _, class_name = target.partition(":")
            module = targets[module_name]
            if module is None:
                self.missing.extend(f"{target}.{name}" for name in names)
                continue
            owner = getattr(module, class_name, None) if class_name else module
            for name in names:
                original = (vars(owner).get(name) if owner is not None
                            else None)
                if not inspect.isfunction(original):
                    self.missing.append(f"{target}.{name}")
                    continue
                if inspect.isgeneratorfunction(original):
                    raise TypeError(f"{target}.{name} is a generator function"
                                    " and cannot be timed by a call probe")
                prefix = class_name or module_name.rpartition(".")[2]
                key = f"{prefix}.{name}"
                if key in self.probes:
                    raise ValueError(f"entry point {key} listed twice")
                probe = self.probes[key] = _Probe(key, metric)
                capture = (self.instances[class_name]
                           if name == "__init__" and class_name in CAPTURED
                           else None)
                wrapper = self._wrap(original, probe, capture)
                holders = [owner] if class_name else modules
                for holder in holders:
                    for bound_name, value in list(vars(holder).items()):
                        if value is original:
                            self._patches.append((holder, bound_name,
                                                  original))
                            setattr(holder, bound_name, wrapper)

    def _wrap(self, original: Callable[..., Any], probe: _Probe,
              capture: Optional[List[Any]]) -> Callable[..., Any]:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                probe.raised += 1
                raise
            finally:
                elapsed = clock() - start
                probe.calls += 1
                probe.self_s += elapsed - stack.pop()
                stack[-1] += elapsed
            if capture is not None:
                capture.append(args[0])
            return result

        setattr(wrapper, _WRAPPED_MARK, original)
        return wrapper

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            holder, name, original = self._patches.pop()
            setattr(holder, name, original)

    def leftover_wrappers(self) -> List[str]:
        """Names in loaded ``repro`` modules still bound to a probe.

        The self-test of the traced run: after :meth:`restore` this is
        empty, so untraced runs execute the unmodified program.
        """
        found = []
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not _is_repro_module(module_name):
                continue
            for name, value in vars(module).items():
                holders = [(name, value)]
                if inspect.isclass(value) and value.__module__ == module_name:
                    holders += [(f"{name}.{attr}", member) for attr, member
                                in vars(value).items()]
                found += [f"{module_name}:{where}" for where, member in holders
                          if hasattr(member, _WRAPPED_MARK)]
        return found

    # -- reading --------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Cumulative probe state and program counters right now."""
        return {
            "covered_s": self._stack[0],
            "probes": {key: (p.calls, p.raised, p.self_s)
                       for key, p in self.probes.items()},
            "program": _program_counters(self.instances),
        }

    def layer_metrics(self, before: Dict[str, Any], after: Dict[str, Any],
                      wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of the phase between two snapshots."""
        def delta(key: str, field: int) -> float:
            return after["probes"][key][field] - before["probes"][key][field]

        metrics = {metric: 0.0 for metric in LAYER_METRICS}
        for key, probe in self.probes.items():
            metrics[probe.metric] += delta(key, 2)
        for metric, keys in CALL_COUNTS.items():
            metrics[metric] = float(sum(delta(k, 0) for k in keys
                                        if k in self.probes))
        for metric, keys in RAISED_COUNTS.items():
            metrics[metric] = float(sum(delta(k, 1) for k in keys
                                        if k in self.probes))
        for metric, value in after["program"].items():
            metrics[metric] = value - before["program"][metric]
        buffered = metrics["examon.plugins.samples_buffered"]
        metrics["examon.plugins.backfill_ratio"] = (
            metrics["examon.plugins.samples_backfilled"] / buffered
            if buffered else 0.0)
        metrics["unattributed_s"] = wall_s - (after["covered_s"]
                                              - before["covered_s"])
        return metrics

    def calls(self, before: Dict[str, Any],
              after: Dict[str, Any]) -> Dict[str, int]:
        """Calls per entry point between two snapshots."""
        return {key: after["probes"][key][0] - before["probes"][key][0]
                for key in self.probes}

    def top_self_time(self, before: Dict[str, Any], after: Dict[str, Any],
                      limit: int = 12) -> List[Tuple[str, float, int]]:
        """Entry points with the most self time in a phase."""
        rows = [(key, after["probes"][key][2] - before["probes"][key][2],
                 after["probes"][key][0] - before["probes"][key][0])
                for key in self.probes]
        rows.sort(key=lambda row: -row[1])
        return rows[:limit]
