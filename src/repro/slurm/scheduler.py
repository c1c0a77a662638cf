"""The SLURM controller: queueing, placement, backfill, failures.

Scheduling policy
-----------------
The controller runs FIFO with **conservative backfill**: the head-of-queue
job reserves the earliest time enough nodes will be free; later jobs may
jump ahead only if their projected end (now + time limit) does not push
past that reservation.  This is slurmctld's default behaviour class and
what a small production system like Monte Cimone runs.

Execution
---------
The controller is driven by a :class:`~repro.events.engine.Engine`.  When
a job starts it optionally drives real :class:`~repro.cluster.node
.ComputeNode` objects (power/thermal/monitoring side effects); a node trip
mid-job fails the job with ``NODE_FAIL`` and marks the node down — the
paper's Fig. 6 incident, as seen by the scheduler.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from repro.events.engine import Engine, Event
from repro.power.traces import activity_modulation
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # runtime import is lazy: cluster imports this module
    from repro.cluster.node import ComputeNode
from repro.slurm.job import Job, JobAttempt, JobState
from repro.slurm.partition import NodeAllocState, Partition, SlurmNodeInfo

__all__ = ["SlurmController"]


class SlurmController:
    """slurmctld for the simulated cluster."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.partitions: Dict[str, Partition] = {}
        self.jobs: Dict[int, Job] = {}
        self._queue: List[int] = []          # pending job ids, FIFO order
        self._next_job_id = 1
        #: Optional binding of hostnames to real simulated nodes.
        self.compute_nodes: Dict[str, "ComputeNode"] = {}
        #: Completion listeners: job -> None callbacks.
        self.on_job_end: List[Callable[[Job], None]] = []
        #: Requeue listeners: called when a NODE_FAIL job re-enters backoff.
        self.on_job_requeue: List[Callable[[Job], None]] = []
        # -- automatic node recovery (drain -> resume lifecycle) ----------
        self._recovery_enabled = False
        self.node_recovery_delay_s = 120.0
        self._node_service: Optional[Callable[[str], Generator[Event, None, None]]] = None
        self._recovering: set[str] = set()
        #: Open trace spans per job id (submit → terminal state), present
        #: only while the engine carries a tracer (see repro.obs).
        self._job_spans: Dict[int, Any] = {}

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting in the pending queue."""
        return len(self._queue)

    def enable_node_recovery(self, delay_s: float = 120.0,
                             service: Optional[Callable[[str], Generator[Event, None, None]]] = None) -> None:
        """Turn on the automatic drain→resume lifecycle for failed nodes.

        A node marked down via :meth:`node_failed` waits ``delay_s`` of
        simulated operator-response time in DOWN, transitions to DRAINED
        for servicing, then returns to IDLE and triggers a scheduling pass.
        ``service`` is an optional cooperative generator ``(hostname) ->
        events`` that performs the actual hardware service (cool-down wait,
        reboot) while the node is DRAINED — the cluster wires
        ``MonteCimoneCluster.service_node_process`` here.  Without a
        service hook only the scheduler state cycles, which is appropriate
        when no hardware nodes are bound.
        """
        self._recovery_enabled = True
        self.node_recovery_delay_s = float(delay_s)
        self._node_service = service

    # -- configuration ---------------------------------------------------------
    def add_partition(self, partition: Partition) -> None:
        """Register a partition."""
        if partition.name in self.partitions:
            raise ValueError(f"partition {partition.name!r} already exists")
        self.partitions[partition.name] = partition

    def bind_node(self, hostname: str, node: "ComputeNode") -> None:
        """Associate a scheduler record with a simulated compute node."""
        self.compute_nodes[hostname] = node

    def default_partition(self) -> Partition:
        """The partition used when jobs do not name one."""
        for partition in self.partitions.values():
            if partition.default:
                return partition
        if not self.partitions:
            raise RuntimeError("no partitions configured")
        return next(iter(self.partitions.values()))

    # -- submission ----------------------------------------------------------
    def submit(self, name: str, user: str, n_nodes: int, duration_s: float,
               time_limit_s: Optional[float] = None,
               partition: Optional[str] = None, profile=None,
               depends_on: Optional[List[int]] = None,
               requeue: bool = False, max_requeues: int = 3,
               requeue_backoff_s: float = 30.0) -> Job:
        """sbatch: enqueue a job and trigger a scheduling pass.

        ``depends_on`` lists job ids this job must wait for
        (``--dependency=afterok`` semantics).  ``requeue`` enables
        ``sbatch --requeue`` behaviour: a NODE_FAIL outcome puts the job
        back in the queue after an exponential backoff (the job's
        :class:`~repro.events.backoff.ExponentialBackoff`,
        ``requeue_backoff_s * 2**restarts``) for up to ``max_requeues``
        retries, each attempt recorded in the job's accounting history.
        """
        part = self.partitions.get(partition) if partition else self.default_partition()
        if part is None:
            raise KeyError(f"no such partition {partition!r}")
        if n_nodes > len(part.nodes):
            raise ValueError(
                f"job needs {n_nodes} nodes but partition {part.name} "
                f"has only {len(part.nodes)}")
        limit = time_limit_s if time_limit_s is not None else part.max_time_s
        if limit > part.max_time_s:
            raise ValueError(f"time limit {limit}s exceeds partition max "
                             f"{part.max_time_s}s")
        for dep_id in depends_on or []:
            if dep_id not in self.jobs:
                raise KeyError(f"dependency job {dep_id} does not exist")
        job = Job(job_id=self._next_job_id, name=name, user=user,
                  n_nodes=n_nodes, duration_s=duration_s, time_limit_s=limit,
                  partition=part.name, submit_time_s=self.engine.now,
                  depends_on=list(depends_on or []),
                  requeue=requeue, max_requeues=max_requeues,
                  requeue_backoff_s=requeue_backoff_s)
        if profile is not None:
            job.profile = profile
        self._next_job_id += 1
        self.jobs[job.job_id] = job
        self._queue.append(job.job_id)
        if self.engine.tracer is not None:
            self._job_spans[job.job_id] = self.engine.tracer.begin(
                f"slurm.job:{job.job_id}", "slurm", job_id=job.job_id,
                job_name=job.name, user=job.user, n_nodes=job.n_nodes)
        self.schedule_pass()
        return job

    def cancel(self, job_id: int) -> None:
        """scancel: remove a pending job or kill a running one."""
        job = self.jobs[job_id]
        if job.state is JobState.PENDING:
            self._queue.remove(job_id)
            self._finish(job, JobState.CANCELLED, "cancelled while pending")
        elif job.state is JobState.RUNNING:
            # The run process observes the flag at its next slice; the job
            # stays RUNNING (nodes held) until it winds down cleanly.
            job.cancel_requested = True
        elif job.state is JobState.REQUEUED:
            # Sitting out a requeue backoff; the backoff process observes
            # the flag when it fires and cancels instead of re-enqueueing.
            job.cancel_requested = True

    # -- scheduling ----------------------------------------------------------
    def _dependency_state(self, job: Job) -> str:
        """'ready' | 'waiting' | 'failed' for afterok dependencies."""
        for dep_id in job.depends_on:
            dep = self.jobs[dep_id]
            if dep.state is JobState.COMPLETED:
                continue
            if dep.state.is_terminal:
                return "failed"
            return "waiting"
        return "ready"

    def _resolve_dependencies(self) -> List[int]:
        """Cancel never-satisfiable jobs; return eligible pending ids."""
        eligible = []
        for job_id in list(self._queue):
            job = self.jobs[job_id]
            state = self._dependency_state(job)
            if state == "failed":
                self._queue.remove(job_id)
                self._finish(job, JobState.CANCELLED,
                             "DependencyNeverSatisfied")
            elif state == "ready":
                eligible.append(job_id)
        return eligible

    def schedule_pass(self) -> None:
        """One FIFO + conservative-backfill pass over the pending queue.

        Dependency-held jobs neither run nor block the queue (SLURM's
        behaviour); jobs whose dependency failed are cancelled.
        """
        started = True
        while started:
            started = False
            eligible = self._resolve_dependencies()
            if not eligible:
                return
            head_id = eligible[0]
            head = self.jobs[head_id]
            part = self.partitions[head.partition]
            if part.n_idle() >= head.n_nodes:
                self._start(head, part)
                self._queue.remove(head_id)
                started = True
                continue
            # Conservative backfill: the head job's reservation is the
            # earliest completion among running jobs that frees enough
            # nodes; a later job may start only if it cannot delay that.
            reservation = self._head_reservation_time(head, part)
            for job_id in eligible[1:]:
                job = self.jobs[job_id]
                jpart = self.partitions[job.partition]
                if jpart.n_idle() < job.n_nodes:
                    continue
                if jpart is part and self.engine.now + job.time_limit_s > reservation:
                    continue  # would delay the head job
                self._start(job, jpart)
                self._queue.remove(job_id)
                started = True
                break

    def _head_reservation_time(self, head: Job, part: Partition) -> float:
        """Earliest time ``head`` could start, from running jobs' limits."""
        running = sorted(
            (j for j in self.jobs.values()
             if j.state is JobState.RUNNING and j.partition == part.name),
            key=lambda j: (j.start_time_s or 0) + j.time_limit_s)
        free = part.n_idle()
        for job in running:
            free += len(job.allocated_nodes)
            if free >= head.n_nodes:
                return (job.start_time_s or 0) + job.time_limit_s
        return float("inf")

    def _start(self, job: Job, part: Partition) -> None:
        nodes = part.idle_nodes()[:job.n_nodes]
        job.allocated_nodes = [n.hostname for n in nodes]
        for info in nodes:
            info.allocate(job.job_id)
        job.state = JobState.RUNNING
        job.start_time_s = self.engine.now
        job.end_time_s = None
        self.engine.spawn(self._run_job(job), name=f"job-{job.job_id}")

    # -- execution -----------------------------------------------------------
    def _run_job(self, job: Job) -> Generator[Event, None, None]:
        """Drive one running job to completion/limit/failure."""
        from repro.cluster.node import NodeState

        bound = [self.compute_nodes[h] for h in job.allocated_nodes
                 if h in self.compute_nodes]
        tracer = self.engine.tracer
        attempt_span = None
        if tracer is not None:
            attempt_span = tracer.begin(
                f"slurm.attempt:{job.job_id}.{len(job.attempts) + 1}",
                "slurm", parent=self._job_spans.get(job.job_id),
                job_id=job.job_id, attempt=len(job.attempts) + 1,
                job_name=job.name,
                nodes=",".join(job.allocated_nodes))
        for node in bound:
            node.begin_workload(job.profile, self.engine.now)
        step = 1.0
        elapsed = 0.0
        outcome = JobState.COMPLETED
        reason = ""
        while elapsed < min(job.duration_s, job.time_limit_s):
            slice_s = min(step, job.duration_s - elapsed,
                          job.time_limit_s - elapsed)
            yield self.engine.timeout(slice_s)
            elapsed += slice_s
            if job.cancel_requested:
                outcome, reason = JobState.CANCELLED, "cancelled by user"
                break
            tripped = [n for n in bound if n.state is NodeState.TRIPPED]
            if tripped:
                outcome = JobState.NODE_FAIL
                reason = (f"node failure: "
                          f"{','.join(n.hostname for n in tripped)} tripped")
                for node in tripped:
                    self.node_failed(node.hostname, "thermal trip")
                break
            if len(bound) > 1:
                self._account_mpi_traffic(job, bound, slice_s,
                                          span=attempt_span)
            for node in bound:
                node.sync_to(self.engine.now)
        else:
            if elapsed >= job.time_limit_s and job.duration_s > job.time_limit_s:
                outcome, reason = JobState.TIMEOUT, "time limit exhausted"
        for node in bound:
            if node.state is NodeState.RUNNING:
                node.end_workload(self.engine.now)
        if attempt_span is not None:
            attempt_span.set(outcome=outcome.value)
            attempt_span.end("ok" if outcome is JobState.COMPLETED
                             else "failed")
        self._release(job)
        if (outcome is JobState.NODE_FAIL and job.requeue
                and not job.cancel_requested
                and job.restart_count < job.max_requeues):
            self._requeue(job, reason)
        else:
            self._record_attempt(job, outcome, reason)
            self._finish(job, outcome, reason)
        self.schedule_pass()

    #: Mean per-node GbE payload of a communication-heavy multi-node job
    #: (calibrated from the 8-node HPL communication volume over runtime).
    MPI_BYTES_PER_NODE_S = 15e6

    def _account_mpi_traffic(self, job: Job, bound: List["ComputeNode"],
                             slice_s: float, span: Any = None) -> None:
        """Drive the nodes' network counters during a multi-node job.

        Communication is anti-correlated with compute phases: the
        instruction-rate dips of Fig. 5 are panel broadcasts, i.e. network
        bursts — so the traffic factor inverts the activity modulation.
        When traced, each slice's burst is recorded as an ``mpi.*``
        collective span under the job attempt (``span``).
        """
        modulation = activity_modulation(job.profile.name, self.engine.now)
        comm_factor = max(0.2, 1.8 - modulation)
        per_node = int(self.MPI_BYTES_PER_NODE_S * comm_factor * slice_s
                       * job.profile.utilisation)
        for node in bound:
            node.board.ethernet.account_send(per_node // 2)
            node.board.ethernet.account_receive(per_node // 2)
        tracer = self.engine.tracer
        if tracer is not None:
            tracer.record("mpi.panel_broadcast",
                          self.engine.now - slice_s, self.engine.now,
                          category="mpi", parent=span,
                          bytes_per_node=per_node, n_ranks=len(bound))

    def _node_info(self, job: Job, hostname: str) -> SlurmNodeInfo:
        return self.partitions[job.partition].nodes[hostname]

    def _release(self, job: Job) -> None:
        for hostname in job.allocated_nodes:
            info = self._node_info(job, hostname)
            if info.state is NodeAllocState.ALLOCATED:
                info.release()

    # -- requeue (--requeue semantics) ----------------------------------------
    def _record_attempt(self, job: Job, state: JobState, reason: str,
                        backoff_s: float = 0.0) -> None:
        if job.start_time_s is None:
            return  # never ran (cancelled while pending / in backoff)
        job.attempts.append(JobAttempt(
            attempt=len(job.attempts) + 1,
            nodes=tuple(job.allocated_nodes),
            start_time_s=job.start_time_s,
            end_time_s=self.engine.now,
            state=state,
            reason=reason,
            backoff_s=backoff_s))

    def _requeue(self, job: Job, reason: str) -> None:
        backoff = job.requeue_backoff.delay(job.restart_count)
        self._record_attempt(job, JobState.NODE_FAIL, reason,
                             backoff_s=backoff)
        job.restart_count += 1
        job.state = JobState.REQUEUED
        job.end_time_s = self.engine.now
        job.exit_reason = (f"requeued after node failure "
                           f"(restart {job.restart_count}/{job.max_requeues}, "
                           f"backoff {backoff:g}s)")
        span = self._job_spans.get(job.job_id)
        if span is not None:
            span.set(restarts=job.restart_count, last_backoff_s=backoff)
        for callback in self.on_job_requeue:
            callback(job)
        self.engine.spawn(self._requeue_after_backoff(job, backoff),
                          name=f"requeue-job-{job.job_id}")

    def _requeue_after_backoff(self, job: Job,
                               backoff_s: float) -> Generator[Event, None, None]:
        """Hold the job out of the queue for its backoff, then re-enqueue."""
        yield self.engine.timeout(backoff_s)
        job.start_time_s = None
        job.end_time_s = None
        job.allocated_nodes = []
        if job.cancel_requested:
            self._finish(job, JobState.CANCELLED,
                         "cancelled during requeue backoff")
            return
        job.state = JobState.PENDING
        self._queue.append(job.job_id)
        self.schedule_pass()

    # -- node failure and recovery --------------------------------------------
    def node_failed(self, hostname: str, reason: str) -> None:
        """Record a node failure: mark it DOWN and start recovery if enabled.

        Idempotent per outage — a node already DOWN/DRAINED (or already in
        its recovery window) is not re-processed, so the watchdog trip path
        and the per-job trip detection can both report the same incident.
        """
        for partition in self.partitions.values():
            info = partition.nodes.get(hostname)
            if info is None:
                continue
            if info.state not in (NodeAllocState.DOWN, NodeAllocState.DRAINED):
                info.mark_down(reason)
            if self._recovery_enabled and hostname not in self._recovering:
                self._recovering.add(hostname)
                self.engine.spawn(self._recover_node(hostname, info),
                                  name=f"recover-{hostname}")

    def resume_node(self, hostname: str) -> None:
        """Return a down/drained node to service, then run a scheduling pass.

        The pass lets a pending job that was waiting for this node start
        now, instead of at the next submit or job end.
        """
        for partition in self.partitions.values():
            info = partition.nodes.get(hostname)
            if info is not None:
                info.resume()
        self.schedule_pass()

    def _recover_node(self, hostname: str,
                      info: SlurmNodeInfo) -> Generator[Event, None, None]:
        """Drive one failed node through DOWN → DRAINED → IDLE."""
        try:
            # Operator response time: the node sits DOWN until someone acts.
            yield self.engine.timeout(self.node_recovery_delay_s)
            info.drain(f"recovering: {info.reason}")
            if self._node_service is not None:
                # Cooperative hardware service (cool-down wait + reboot).
                yield from self._node_service(hostname)
            info.resume()
        finally:
            self._recovering.discard(hostname)
        self.schedule_pass()

    def _finish(self, job: Job, state: JobState, reason: str) -> None:
        job.state = state
        job.end_time_s = self.engine.now
        job.exit_reason = reason
        span = self._job_spans.pop(job.job_id, None)
        if span is not None:
            span.set(final_state=state.value, reason=reason)
            span.end("ok" if state is JobState.COMPLETED else "failed")
        for callback in self.on_job_end:
            callback(job)

    # -- queries ----------------------------------------------------------------
    def squeue(self) -> List[str]:
        """Pending + running jobs in squeue format."""
        header = ("   JOBID PARTITION         NAME     USER ST NODES NODELIST")
        rows = [job.squeue_row() for job in self.jobs.values()
                if not job.state.is_terminal]
        return [header] + rows

    def sinfo(self) -> List[str]:
        """Partition/node-state summary in sinfo format."""
        header = " PARTITION  STATE NODES NODELIST"
        rows: List[str] = []
        for partition in self.partitions.values():
            rows.extend(partition.sinfo_rows())
        return [header] + rows
