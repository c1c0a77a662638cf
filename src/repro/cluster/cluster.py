"""The full Monte Cimone machine.

Assembles the whole §III/§IV system:

* eight compute nodes (``mc-node-1`` … ``mc-node-8``) placed in the
  slots of an :class:`~repro.thermal.enclosure.Enclosure`;
  nodes 1 and 2 carry the Infiniband HCAs;
* a login node and a master node (job scheduler, NFS, LDAP, the ExaMon
  broker and storage run there);
* the GbE star network;
* a SLURM controller bound to the compute nodes;
* a thermal watchdog sampling every SoC sensor and shutting down nodes at
  the 107 °C trip (the Fig. 6 behaviour).

The cluster exposes high-level drivers used by the examples and the
benchmark harness: boot everything, run a benchmark job on N nodes,
change the enclosure configuration (the §V-C mitigation) mid-simulation.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.events.engine import Engine, Event
from repro.cluster.node import ComputeNode, NodeState
from repro.cluster.services.ldap import LDAPServer
from repro.cluster.services.modules import EnvironmentModules
from repro.cluster.services.nfs import NFSServer
from repro.network.topology import ClusterTopology
from repro.slurm.partition import Partition, SlurmNodeInfo
from repro.slurm.scheduler import SlurmController
from repro.thermal.enclosure import Enclosure, EnclosureConfig
from repro.thermal.runaway import ThermalWatchdog

__all__ = ["MonteCimoneCluster"]


class MonteCimoneCluster:
    """Eight RISC-V nodes, four blades, one production software stack."""

    N_NODES = 8
    THERMAL_SAMPLE_S = 1.0

    #: Cabling order: which enclosure slot each node (1-based) sits in.
    #: Nodes 3, 4, 7 and 8 occupy the centre blades; node 7 is in slot 4,
    #: the slot with the worst heat-sink seating — it runs away first,
    #: matching Fig. 6.
    SLOT_OF_NODE = {1: 0, 2: 1, 3: 2, 4: 3, 5: 6, 6: 7, 7: 4, 8: 5}

    def __init__(self, engine: Optional[Engine] = None,
                 enclosure_config: Optional[EnclosureConfig] = None,
                 patched_uboot: bool = True) -> None:
        self.engine = engine if engine is not None else Engine()
        self.enclosure = Enclosure(
            enclosure_config if enclosure_config is not None
            else EnclosureConfig.original())

        # -- compute nodes -------------------------------------------------
        self.nodes: Dict[str, ComputeNode] = {}
        for i in range(self.N_NODES):
            hostname = f"mc-node-{i + 1}"
            node = ComputeNode(hostname=hostname,
                               with_infiniband=(i < 2),
                               patched_uboot=patched_uboot)
            node.attach_thermal(self.enclosure, slot=self.SLOT_OF_NODE[i + 1])
            self.nodes[hostname] = node

        # -- network --------------------------------------------------------
        self.topology = ClusterTopology(
            [*self.nodes, "mc-login", "mc-master"])

        # -- services on the master node -----------------------------------
        self.nfs = NFSServer(hostname="mc-master")
        self.nfs.export("/home")
        self.nfs.export("/opt/spack")
        self.ldap = LDAPServer()
        self.ldap.add_group("hpc-users")
        self.modules = EnvironmentModules()

        # -- scheduler -------------------------------------------------------
        self.slurm = SlurmController(self.engine)
        partition = Partition(name="compute", max_time_s=7 * 86400.0, default=True)
        for hostname, node in self.nodes.items():
            partition.add_node(SlurmNodeInfo(hostname=hostname,
                                             n_cores=node.board.n_cores))
            self.slurm.bind_node(hostname, node)
        self.slurm.add_partition(partition)

        # -- thermal protection -----------------------------------------------
        self.watchdog = ThermalWatchdog(on_trip=self._trip_node)
        self._watchdog_running = False

    # -- lifecycle -----------------------------------------------------------
    def boot_all(self) -> None:
        """Boot every compute node and start the thermal watchdog."""
        processes = [self.engine.spawn(node.boot_process(self.engine),
                                       name=f"boot-{name}")
                     for name, node in self.nodes.items()]
        done = self.engine.all_of(processes)
        self.engine.run_until_complete(done)
        self.start_watchdog()

    def start_watchdog(self) -> None:
        """Start the cluster-wide thermal sampling loop (idempotent)."""
        if not self._watchdog_running:
            self._watchdog_running = True
            self.engine.spawn(self._watchdog_process(), name="thermal-watchdog")

    def _watchdog_process(self) -> Generator[Event, None, None]:
        while True:
            yield self.engine.timeout(self.THERMAL_SAMPLE_S)
            for hostname, node in self.nodes.items():
                # Nodes not driven by a running job still evolve thermally
                # (idle heat, or cooling while off/tripped).
                if node.state is not NodeState.RUNNING:
                    node.sync_to(self.engine.now)
                if node.state in (NodeState.OFF, NodeState.TRIPPED):
                    continue
                self.watchdog.observe(self.engine.now, hostname,
                                      node.cpu_temperature_c())

    def _trip_node(self, hostname: str) -> None:
        self.inject_node_failure(hostname, reason="thermal trip")

    def inject_node_failure(self, hostname: str,
                            reason: str = "injected fault") -> None:
        """Fault injection entry point: trip a node and tell the scheduler.

        Unlike calling ``emergency_shutdown`` on the node directly, this
        also reports the failure to the SLURM controller, so a node tripped
        while idle (or mid-boot) is marked DOWN instead of silently staying
        in the schedulable pool — and, when auto-recovery is enabled, its
        drain→resume lifecycle starts.  The thermal watchdog trips through
        this same path.
        """
        self.nodes[hostname].emergency_shutdown(self.engine.now)
        self.slurm.node_failed(hostname, reason)

    def enable_auto_recovery(self, delay_s: float = 60.0) -> None:
        """Have failed nodes serviced and returned to the pool automatically.

        Wires the controller's drain→resume lifecycle to the cluster's
        cooperative hardware service: after ``delay_s`` of simulated
        operator-response time the node is drained, cooled, rebooted and
        resumed — the recovery half of the Fig. 6 incident response.
        """
        self.slurm.enable_node_recovery(delay_s=delay_s,
                                        service=self.service_node_process)

    def apply_thermal_mitigation(self) -> None:
        """The §V-C fix: remove the lids, add vertical spacing."""
        self.enclosure.config = EnclosureConfig.mitigated()
        for node in self.nodes.values():
            if node.thermal is not None:
                node.set_enclosure(self.enclosure)

    def service_node(self, hostname: str, cool_below_c: float = 32.0,
                     cooldown_guard_s: float = 3600.0) -> None:
        """Return a tripped node to service after maintenance.

        Runs the simulation through :meth:`service_node_process` (cool
        below ``cool_below_c``, then reboot), then resumes the node through
        the controller, whose scheduling pass can start a pending job on
        it at once.
        """
        self.engine.run_until_complete(self.engine.spawn(
            self.service_node_process(hostname, cool_below_c,
                                      cooldown_guard_s)))
        self.slurm.resume_node(hostname)

    def service_node_process(self, hostname: str, cool_below_c: float = 32.0,
                             cooldown_guard_s: float = 3600.0
                             ) -> Generator[Event, None, None]:
        """Service a tripped node: wait for it to cool, then reboot it.

        Polls the SoC temperature every 10 s of simulated time until it
        drops below ``cool_below_c`` (raising ``RuntimeError`` once
        ``cooldown_guard_s`` has passed), then boots the node.  Everything
        happens by yielding events, so the controller's automatic
        node-recovery lifecycle runs it while the rest of the cluster keeps
        going, and :meth:`service_node` runs it to completion.
        Scheduler-side state is the caller's responsibility, matching
        ``enable_node_recovery``'s contract (the controller resumes the
        node itself).
        """
        node = self.nodes[hostname]
        if node.state is not NodeState.TRIPPED:
            raise RuntimeError(f"{hostname} is {node.state}, not tripped")
        guard = self.engine.now + cooldown_guard_s
        while node.cpu_temperature_c() > cool_below_c:
            if self.engine.now > guard:
                raise RuntimeError(f"{hostname} failed to cool below "
                                   f"{cool_below_c} °C within the guard time")
            yield self.engine.timeout(10.0)
            node.sync_to(self.engine.now)
        node.state = NodeState.OFF
        self.watchdog.reset(hostname)
        yield from node.boot_process(self.engine)

    # -- convenience views -----------------------------------------------------
    def total_power_w(self) -> float:
        """Instantaneous DC power of all compute nodes."""
        return sum(node.total_power_w() for node in self.nodes.values())

    def hottest_node(self) -> tuple[str, float]:
        """(hostname, SoC °C) of the hottest node right now."""
        name = max(self.nodes, key=lambda n: self.nodes[n].cpu_temperature_c())
        return name, self.nodes[name].cpu_temperature_c()

    def run_for(self, duration_s: float) -> None:
        """Advance the whole simulation by ``duration_s``."""
        self.engine.run(until=self.engine.now + duration_s)
