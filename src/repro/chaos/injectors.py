"""Fault injectors: one class per layer of the reproduced system.

Each injector drives a component's own failure surface (the components
know how to *be* broken — the injector only flips the switch at
scheduled simulated times) and keeps the campaign's book-keeping:

* every inject/restore lands in the shared
  :class:`~repro.chaos.faults.ChaosLog` the instant it happens;
* at restore time the injector records the *fault window* as a completed
  ``chaos.fault`` span named ``fault:<kind>:<target>`` on the engine's
  tracer (when attached).

Recovery spans (``chaos.recovery`` / ``recovery:<kind>:<target>``) are
recorded by whichever side actually performs the recovery: the sampling
plugins on reconnect/backfill, the MPI retry loop once a flapping link
returns, the injector itself for passive components (a stuck sensor, a
service whose queued clients it replays on restore).
The invariant checker in :mod:`repro.chaos.check` matches the two by
their ``kind``/``target`` attributes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Tuple

from repro.chaos.faults import ChaosLog, FaultKind
from repro.events.engine import Engine, Event

__all__ = ["FaultInjector", "SensorFaultInjector", "BrokerOutageInjector",
           "LinkFaultInjector", "ServiceOutageInjector", "NodeTripInjector"]


class FaultInjector:
    """Shared scheduling and span/log plumbing for concrete injectors."""

    #: Overridden by subclasses.
    KIND = "fault"

    def __init__(self, engine: Engine, log: ChaosLog, target: str) -> None:
        self.engine = engine
        self.log = log
        self.target = target
        self._injected_at: Optional[float] = None

    # -- subclass surface -----------------------------------------------------
    def _apply(self) -> None:
        """Break the component (subclass hook)."""
        raise NotImplementedError

    def _revert(self) -> None:
        """Unbreak the component (subclass hook)."""
        raise NotImplementedError

    def _detail(self) -> str:
        """Extra text for the chaos log (subclass hook)."""
        return ""

    # -- campaign surface -----------------------------------------------------
    def inject(self) -> None:
        """Break the target now (idempotent while already injected)."""
        if self._injected_at is not None:
            return
        self._injected_at = self.engine.now
        self._apply()
        self.log.add(self.engine.now, "inject", self.KIND, self.target,
                     self._detail())

    def restore(self) -> None:
        """Unbreak the target now and record the fault window span."""
        if self._injected_at is None:
            return
        start_s = self._injected_at
        self._injected_at = None
        self._revert()
        self.log.add(self.engine.now, "restore", self.KIND, self.target)
        self._record_span("fault", "chaos.fault", start_s, self.engine.now)

    def schedule_window(self, start_s: float, end_s: float) -> None:
        """Arrange inject at ``start_s`` and restore at ``end_s``."""
        if end_s <= start_s:
            raise ValueError(f"empty fault window [{start_s}, {end_s}]")
        self.engine.call_at(start_s, self.inject)
        self.engine.call_at(end_s, self.restore)

    # -- tracing -------------------------------------------------------------
    def _record_span(self, prefix: str, category: str, start_s: float,
                     end_s: float, **attributes: Any) -> None:
        tracer = self.engine.tracer
        if tracer is None:
            return
        tracer.record(f"{prefix}:{self.KIND}:{self.target}", start_s, end_s,
                      category=category, kind=self.KIND, target=self.target,
                      **attributes)

    def _record_recovery(self, start_s: float, end_s: float,
                         **attributes: Any) -> None:
        self._record_span("recovery", "chaos.recovery", start_s, end_s,
                          **attributes)


class SensorFaultInjector(FaultInjector):
    """A hwmon sensor of a node drops off the bus or freezes (Table IV
    hardware).

    ``dropout`` recovery is *active*: the sampling plugin notices reads
    failing and records the recovery span at its first successful read
    (see ``SamplingPlugin.note_target_recovered``).  ``stuck`` is silent
    — reads keep succeeding with a frozen value — so the injector records
    the recovery itself at repair time.  The node settles before each
    flip, so a stuck sensor freezes at the reading of the node's last
    tick and the ticks before the repair see the fault.
    """

    def __init__(self, engine: Engine, log: ChaosLog, node: Any,
                 sensor_name: str, mode: str = "dropout") -> None:
        if mode not in ("dropout", "stuck"):
            raise ValueError(f"unknown sensor fault mode {mode!r}")
        super().__init__(engine, log, target=f"{node.hostname}/{sensor_name}")
        self.node = node
        self.sensor = node.board.hwmon.sensors[sensor_name]
        self.mode = mode

    @property
    def KIND(self) -> str:  # noqa: N802 - property overriding a class attr
        return (FaultKind.SENSOR_DROPOUT if self.mode == "dropout"
                else FaultKind.SENSOR_STUCK)

    def _apply(self) -> None:
        self.node.settle()
        if self.mode == "dropout":
            self.sensor.fail_dropout()
        else:
            self.sensor.fail_stuck()

    def _revert(self) -> None:
        self.node.settle()
        self.sensor.repair()

    def _detail(self) -> str:
        return f"mode={self.mode}"

    def restore(self) -> None:
        start_s = self._injected_at
        super().restore()
        if start_s is not None and self.mode == "stuck":
            # Silent fault: nobody else saw it, so the repair instant is
            # the recovery.
            self._record_recovery(start_s, self.engine.now, silent=True)


class BrokerOutageInjector(FaultInjector):
    """The master-node MQTT broker goes down (§IV-B transport loss).

    Recovery is owned by the sampling plugins: each one reconnects under
    its seeded backoff and backfills its buffer, recording a
    ``recovery:broker-outage:<broker>`` span per daemon.
    """

    KIND = FaultKind.BROKER_OUTAGE

    def __init__(self, engine: Engine, log: ChaosLog, broker: Any) -> None:
        super().__init__(engine, log, target=broker.hostname)
        self.broker = broker

    def _apply(self) -> None:
        self.broker.go_offline()

    def _revert(self) -> None:
        self.broker.restore()


class LinkFaultInjector(FaultInjector):
    """A GbE port link goes down or degrades (§IV star network).

    ``down`` recovery is owned by the MPI retry loop
    (:func:`repro.network.mpi.run_collective_with_retry`), which records
    the recovery span once a collective makes it through.  ``degraded``
    only stretches transfer times — passive, so the injector records the
    recovery at restore.
    """

    def __init__(self, engine: Engine, log: ChaosLog, link: Any,
                 mode: str = "down", factor: float = 4.0) -> None:
        if mode not in ("down", "degraded"):
            raise ValueError(f"unknown link fault mode {mode!r}")
        super().__init__(engine, log, target=link.name)
        self.link = link
        self.mode = mode
        self.factor = factor

    @property
    def KIND(self) -> str:  # noqa: N802 - property overriding a class attr
        return (FaultKind.LINK_DOWN if self.mode == "down"
                else FaultKind.LINK_DEGRADED)

    def _apply(self) -> None:
        if self.mode == "down":
            self.link.set_down()
        else:
            self.link.set_degraded(self.factor)

    def _revert(self) -> None:
        if self.mode == "down":
            self.link.set_up()
        else:
            self.link.clear_degraded()

    def _detail(self) -> str:
        return ("" if self.mode == "down"
                else f"bandwidth/{self.factor:g}")

    def restore(self) -> None:
        start_s = self._injected_at
        super().restore()
        if start_s is not None and self.mode == "degraded":
            self._record_recovery(start_s, self.engine.now,
                                  factor=self.factor)


class ServiceOutageInjector(FaultInjector):
    """NFS or LDAP on the master node goes down (§IV-A).

    Clients degrade by queueing (parked logins, deferred home-directory
    writes).  On restore the injector runs ``on_restore`` — typically
    ``LoginNode.process_queued`` plus ``flush_deferred_writes`` — and
    records the recovery span carrying whatever counts the callback
    returns.
    """

    KIND = FaultKind.SERVICE_OUTAGE

    def __init__(self, engine: Engine, log: ChaosLog, service: Any,
                 on_restore: Optional[Callable[[], Dict[str, Any]]] = None
                 ) -> None:
        super().__init__(engine, log, target=service.SERVICE_NAME)
        self.service = service
        self.on_restore = on_restore

    def _apply(self) -> None:
        self.service.stop_service()

    def _revert(self) -> None:
        self.service.start_service()

    def restore(self) -> None:
        start_s = self._injected_at
        super().restore()
        if start_s is None:
            return
        attrs: Dict[str, Any] = {
            "requests_refused": self.service.requests_refused}
        if self.on_restore is not None:
            attrs.update(self.on_restore() or {})
        self._record_recovery(start_s, self.engine.now, **attrs)


class NodeTripInjector(FaultInjector):
    """A compute node lost to an over-temperature trip (Fig. 6).

    Injection goes through the cluster's own failure path
    (``inject_node_failure``), so SLURM marks the node DOWN and — with
    auto-recovery enabled — starts its drain→cool→reboot→resume
    lifecycle.  A watcher process records both the fault window and the
    recovery span once the scheduler returns the node to IDLE; there is
    no scheduled restore, the cluster heals itself.
    """

    KIND = FaultKind.NODE_TRIP
    #: How often the watcher reads the node's SLURM state, seconds.
    POLL_S = 5.0

    def __init__(self, engine: Engine, log: ChaosLog, cluster: Any,
                 hostname: str) -> None:
        super().__init__(engine, log, target=hostname)
        self.cluster = cluster
        self.hostname = hostname
        self.recovered_at_s: Optional[float] = None

    def _apply(self) -> None:
        self.cluster.inject_node_failure(self.hostname,
                                         reason="chaos: injected trip")
        self.engine.spawn(self._watch(), name=f"chaos-watch-{self.hostname}")

    def _revert(self) -> None:  # pragma: no cover - never scheduled
        raise RuntimeError("node trips heal through SLURM, not restore()")

    def schedule_at(self, when_s: float) -> None:
        """Arrange the trip at ``when_s`` (no restore — see class docs)."""
        self.engine.call_at(when_s, self.inject)

    def _slurm_state(self) -> Tuple[str, Any]:
        for partition in self.cluster.slurm.partitions.values():
            if self.hostname in partition.nodes:
                return partition.nodes[self.hostname].state.value, partition
        raise KeyError(f"{self.hostname} is in no partition")

    def _watch(self) -> Generator[Event, None, None]:
        start_s = self.engine.now
        while True:
            yield self.engine.timeout(self.POLL_S)
            state, _ = self._slurm_state()
            if state == "idle":
                break
        self.recovered_at_s = self.engine.now
        self._injected_at = None
        self.log.add(self.engine.now, "restore", self.KIND, self.target,
                     "drain->resume complete")
        self._record_span("fault", "chaos.fault", start_s, self.engine.now)
        self._record_recovery(start_s, self.engine.now,
                              via="slurm drain->resume")
