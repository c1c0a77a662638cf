"""stats_pub: OS statistics at 0.2 Hz (§IV-B, Table III).

The plugin reads procfs and sysfs — load, CPU usage split, memory usage,
paging, disk and network totals, interrupts/context switches, process
counts, and the three hwmon temperature sensors of Table IV — and
publishes each metric under its Table II/III name (note the ``dstat_pub``
plugin directory in the topic, a quirk kept from the paper).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.node import ComputeNode
from repro.examon.broker import MQTTBroker
from repro.examon.plugins.base import SamplingPlugin
from repro.examon.topics import TopicSchema
from repro.hardware.sensors import SensorReadError

__all__ = ["StatsPubPlugin", "TABLE_III_METRICS"]

#: The Table III metric catalogue, by group.
TABLE_III_METRICS = {
    "Load": ["load_avg.1m", "load_avg.5m", "load_avg.15m"],
    "I/O": ["io_total.read", "io_total.writ"],
    "Processes": ["procs.run", "procs.blk", "procs.new"],
    "Memory": ["memory_usage.used", "memory_usage.free",
               "memory_usage.buff", "memory_usage.cach",
               "paging.in", "paging.out"],
    "Disk": ["dsk_total.read", "dsk_total.writ"],
    "System": ["system.int", "system.csw"],
    "CPU": ["total_cpu_usage.usr", "total_cpu_usage.sys",
            "total_cpu_usage.idl", "total_cpu_usage.wai",
            "total_cpu_usage.stl"],
    "Network": ["net_total.recv", "net_total.send"],
    "Temperatures": ["temperature.mb_temp", "temperature.cpu_temp",
                     "temperature.nvme_temp"],
}


class StatsPubPlugin(SamplingPlugin):
    """The OS-statistics sampler."""

    DEFAULT_HZ = 0.2

    def __init__(self, node: ComputeNode, broker: MQTTBroker,
                 sample_hz: float = DEFAULT_HZ,
                 schema: Optional[TopicSchema] = None,
                 **hardening: object) -> None:
        # ``hardening`` forwards the outage knobs (buffer_limit,
        # reconnect_backoff) without restating the base signature.
        super().__init__(hostname=node.hostname, broker=broker,
                         sample_hz=sample_hz, schema=schema, **hardening)
        self.node = node
        #: metric name → formatted Table II topic (topics are immutable
        #: per plugin; format once, look up every sampling instant).
        self._topic_cache: Dict[str, str] = {}

    def sample(self, now_s: float) -> Dict[str, float]:
        """Collect every Table III metric for this node."""
        node = self.node
        node.settle()
        procfs = node.procfs
        board = node.board
        values: Dict[str, float] = {}

        load = procfs.loadavg()
        values["load_avg.1m"] = load["1m"]
        values["load_avg.5m"] = load["5m"]
        values["load_avg.15m"] = load["15m"]

        values["io_total.read"] = float(procfs.io_read_total)
        values["io_total.writ"] = float(procfs.io_write_total)

        procs = procfs.processes()
        values["procs.run"] = float(procs["run"])
        values["procs.blk"] = float(procs["blk"])
        values["procs.new"] = float(procs["new"])

        memory = procfs.memory()
        values["memory_usage.used"] = float(memory["used"])
        values["memory_usage.free"] = float(memory["free"])
        values["memory_usage.buff"] = float(memory["buff"])
        values["memory_usage.cach"] = float(memory["cach"])

        paging = procfs.paging()
        values["paging.in"] = float(paging["in"])
        values["paging.out"] = float(paging["out"])

        values["dsk_total.read"] = float(board.nvme.bytes_read)
        values["dsk_total.writ"] = float(board.nvme.bytes_written)

        system = procfs.system()
        values["system.int"] = float(system["int"])
        values["system.csw"] = float(system["csw"])

        cpu = procfs.cpu.percentages()
        for key, value in cpu.items():
            values[f"total_cpu_usage.{key}"] = value

        values["net_total.recv"] = float(board.ethernet.bytes_received)
        values["net_total.send"] = float(board.ethernet.bytes_sent)

        # Table IV sensors through the hwmon sysfs paths.  A sensor that
        # dropped off the bus (SensorReadError, the kernel's EIO) is
        # skipped for this instant rather than killing the daemon; the
        # first successful read afterwards closes the recovery window.
        for sensor in ("mb_temp", "cpu_temp", "nvme_temp"):
            target = f"{self.hostname}/{sensor}"
            try:
                raw = board.hwmon.read(board.hwmon.path_of(sensor))
            except SensorReadError:
                self.note_target_fault("sensor-dropout", target, now_s)
                continue
            self.note_target_recovered("sensor-dropout", target, now_s)
            values[f"temperature.{sensor}"] = int(raw.strip()) / 1000.0

        topics = self._topic_cache
        out: Dict[str, float] = {}
        for metric, value in values.items():
            topic = topics.get(metric)
            if topic is None:
                topic = self.schema.stats_topic(self.hostname, metric)
                topics[metric] = topic
            out[topic] = value
        return out
