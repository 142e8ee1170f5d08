"""The job distributor (the paper's backend workhorse).

Section II: the web interface "creates a compilation and/or executor
object, which in turn upon success contacts a job distributor to
allocate resources on the cluster and finally dispatch the job onto
those resources".  :class:`JobDistributor` is that component:

* :meth:`submit` accepts a :class:`~repro.cluster.job.JobRequest`
  (validated, journaled, QUEUED) and then triggers dispatch through
  :func:`~repro._reply.after_reply`: at once for a direct caller, and
  after the HTTP reply for a request the portal's server is answering,
  so a student's submission is acknowledged before it is launched;
* dispatch asks the configured scheduling policy for placements,
  reserves cores/memory on the chosen nodes, and hands the job to the
  execution backend;
* completion callbacks free the resources and re-trigger dispatch, so
  the queue drains as capacity appears.

Dispatch is *incremental and coalescing*: every trigger (submission,
completion, fault event) marks the distributor dirty and one drain loop
runs scheduling rounds until nothing is pending — concurrent triggers
merge into the round already in flight instead of stacking rounds.  A
round costs O(queue + active), not O(all jobs ever submitted): capacity
is read through the grid's incremental index (O(1) setup per round,
see :class:`~repro.cluster.scheduler.CapacityView`), running-job end
estimates live in a pre-sorted structure maintained on start/finish,
and dependency-held jobs wait in a side table so the policy never
rescans them.  ``stats()["dispatch"]`` exposes counters (rounds, jobs
examined, placements tried, ...) so the engine's work is observable.

The distributor is also the cluster's *fault-tolerance layer*:

* **Retries.** A failed/timed-out attempt whose :class:`RetryPolicy`
  (per-request, or the distributor-wide default) still has budget moves
  RUNNING → RETRYING → QUEUED with exponential, seeded-jitter backoff
  instead of sealing; every finished attempt is recorded on the job's
  lineage (``job.attempts``).
* **Timeouts.** Per-job run-time (``timeout_s``) and total wall-clock
  (``wallclock_timeout_s``) deadlines are enforced by the dispatch loop
  itself through a deadline heap + armed wake-ups, so even backends
  with no timeout support (DES, plain callables) time out exactly once.
* **Node death.** :meth:`fail_node` retires the orphaned attempts,
  reroutes jobs with retry budget to surviving nodes and seals the rest
  — the first-class API :class:`~repro.cluster.faults.FaultInjector`
  drives.
* **Health.** A :class:`~repro.cluster.monitor.HealthMonitor` turns
  repeated attempt failures into SUSPECT (drained) nodes, rejoins them
  after probation, and flags degraded mode when surviving capacity
  drops below a threshold; ``stats()["faults"]`` counts every recovery
  action.

The distributor is time-source agnostic: pass ``now_fn=lambda: sim.now``
with a :class:`SimulatedBackend` and the whole pipeline runs on virtual
time (backoff/timeout wake-ups are scheduled on the simulator
automatically); with the default wall clock it serves the live portal
using daemon timers.
"""

from __future__ import annotations

import bisect
import dataclasses
import heapq
import itertools
import threading
import time
from typing import Callable, Optional

import numpy as np

from repro._errors import JobError, ResourceError, SchedulingError
from repro._reply import after_reply
from repro.cluster.backends import (
    CallableBackend,
    ExecutionBackend,
    ExecutionHandle,
    SimulatedBackend,
)
from repro.cluster.grid import Grid
from repro.cluster.job import Job, JobAttempt, JobRequest, JobState, RetryPolicy
from repro.cluster.monitor import ClusterMonitor, HealthMonitor, HealthPolicy
from repro.cluster.node import NodeState
from repro.cluster.queue import JobQueue
from repro.cluster.scheduler import (
    CapacityView,
    FIFOScheduler,
    RunningEstimates,
    Scheduler,
    ready_for_dispatch,
)
from repro.telemetry.instruments import DispatchTelemetry

__all__ = ["JobDistributor"]

#: delay before a dispatch round that raised is tried again (seconds, in
#: ``now_fn`` time): the jobs it left queued may have been acknowledged.
_REDISPATCH_S = 0.05

#: the terminal state of a job whose last attempt ended as each outcome
#: when it gets no further attempt
_SEALED_AS = {
    "completed": JobState.COMPLETED,
    "failed": JobState.FAILED,
    "cancelled": JobState.CANCELLED,
    "timeout": JobState.TIMEOUT,
    "node_lost": JobState.FAILED,
}


class JobDistributor:
    """Allocate → dispatch → free, under a pluggable scheduling policy."""

    def __init__(
        self,
        grid: Grid,
        backend: ExecutionBackend,
        scheduler: Scheduler | None = None,
        now_fn: Callable[[], float] | None = None,
        monitor: ClusterMonitor | None = None,
        retry: RetryPolicy | None = None,
        health: HealthMonitor | None = None,
        health_policy: HealthPolicy | None = None,
        track_health: bool = True,
        seed: int = 0,
        defer_fn: Callable[[float, Callable[[], None]], None] | None = None,
        registry=None,
        journal=None,
    ) -> None:
        self.grid = grid
        self.backend = backend
        #: lazily-created companion for callable *service* jobs (e.g. the
        #: portal's exploration workload) when the primary backend only
        #: understands argv — see :meth:`_backend_for`.
        self._callable_backend: CallableBackend | None = None
        self.scheduler = scheduler or FIFOScheduler()
        self.now_fn = now_fn or time.monotonic
        self.monitor = monitor or ClusterMonitor()
        #: distributor-wide default retry policy; ``None`` means jobs are
        #: not retried unless their request carries its own policy.
        self.retry = retry
        #: jitter source for retry backoff — seeded, so schedules reproduce.
        self.rng = np.random.default_rng(seed)
        if track_health:
            self.health: Optional[HealthMonitor] = health or HealthMonitor(grid, health_policy)
        else:
            self.health = None
        #: schedules a callback after a delay — wall-clock daemon timers by
        #: default, the DES event queue when the backend is simulated (so
        #: backoff/timeout wake-ups ride virtual time).
        self._defer_fn = defer_fn or self._default_defer
        self.queue = JobQueue()
        self.jobs: dict[str, Job] = {}
        self._handles: dict[str, ExecutionHandle] = {}
        self._lock = threading.RLock()
        #: signalled whenever a job reaches a terminal state or a drain
        #: finishes — :meth:`wait_all` blocks here instead of polling.
        self._idle = threading.Condition(self._lock)
        #: jobs whose dependencies are not yet resolved; invisible to the
        #: policy until released (or doomed) by a scheduling round.
        self._held: dict[str, Job] = {}
        #: live RUNNING set — completion bookkeeping and busy checks are
        #: O(active), never a scan over ``self.jobs``.
        self._running: dict[str, Job] = {}
        #: (estimated_end, cores) of running jobs, kept end-time-sorted.
        self._run_ends: RunningEstimates = RunningEstimates()
        self._run_entry: dict[str, tuple[float, int]] = {}
        # Coalesced-dispatch state.
        self._dirty = False
        self._draining = False
        # Fault-tolerance state: pending (deadline, seq, kind, job, epoch)
        # entries in a heap.
        self._deadlines: list[tuple[float, int, str, str, int]] = []
        self._deadline_seq = itertools.count()
        self._timer_at: Optional[float] = None
        #: per-distributor by default so counters never bleed between
        #: instances; pass a shared (or Null) registry to aggregate or
        #: disable.  Spans and events are stamped with ``now_fn`` time,
        #: so DES runs trace virtual seconds.
        self.telemetry = DispatchTelemetry(
            registry=registry, clock=self.now_fn, policy=self.scheduler.name
        )
        tel = self.telemetry
        # Hot-path counters are plain ints bumped with ``+=`` inside the
        # scheduling loop; the telemetry shim owns them and exports them
        # through read-time callbacks (the respcache pattern), so counting
        # costs the same whether telemetry is on or off.
        self._counters = tel.counters
        self._faults = tel.faults
        tel.g_queued.set_fn(lambda: len(self.queue) + len(self._held))
        tel.g_running.set_fn(lambda: len(self._running))
        self.monitor.bind(tel.registry)
        if self.health is not None:
            self.health.bind(tel.registry)
        #: monotone state-change counter: bumps on submit, start, finish,
        #: cancel and every fault event.  Cheap to read; the portal keys
        #: its cluster-status response cache on it, so a stale snapshot is
        #: never served.
        self._version = 0
        #: write-ahead journal (:class:`repro.durability.JobJournal`), or
        #: ``None`` for the historical in-memory-only behaviour.  Every
        #: state-machine transition below appends under the lock, so
        #: journal order is commit order; ``checkpoint()`` snapshots and
        #: compacts.  Duck-typed to keep the import graph acyclic.
        self.journal = journal
        #: the :class:`RecoveryReport` of the boot that built this
        #: instance, when it came through ``recover_distributor``.
        self.last_recovery = None
        #: the attached :class:`repro.fleet.ScalingManager`, when one is
        #: driving this distributor — set by the manager itself; the
        #: portal and bus surface it read-only.
        self.fleet = None
        if journal is not None:
            journal.bind(self.telemetry.registry, clock=self.now_fn)
        #: called with each job once it is sealed, outside the lock
        self._sealed_listeners: list[Callable[[Job], None]] = []
        #: jobs sealed (lock held) and not yet handed to those listeners
        self._sealed: list[Job] = []

    # -- submission -----------------------------------------------------------
    def submit(self, request: JobRequest) -> Job:
        """Accept a request and trigger a dispatch round; returns the Job.

        The job is journaled and QUEUED when this returns to a request
        served inside a reply scope, whose dispatch runs once the reply
        is out; any other caller gets the job after the round, RUNNING
        when capacity allowed.
        """
        job = self._accept(request)
        after_reply(self.dispatch)
        return job

    def submit_array(self, request: JobRequest, count: int) -> list[Job]:
        """Submit ``count`` clones of ``request`` (a job array).

        Each element gets a ``name[k]`` suffix; elements are independent
        (no implied ordering).  Returns them in index order.

        The whole array is *batched*: every clone is enqueued first and a
        single dispatch round, triggered as in :meth:`submit`, then places
        as many as fit, instead of one full scheduling round per element.
        """
        if count < 1:
            raise JobError(f"array count must be >= 1, got {count}")
        jobs = [
            self._accept(dataclasses.replace(request, name=f"{request.name}[{k}]"))
            for k in range(count)
        ]
        after_reply(self.dispatch)
        return jobs

    def _accept(self, request: JobRequest) -> Job:
        """Validate and enqueue (or hold) a request without dispatching."""
        self._validate(request)
        job = Job(request)
        with self._lock:
            self.jobs[job.id] = job
            self._version += 1
            job.submitted_at = self.now_fn()
            job.transition(JobState.QUEUED)
            if self.journal is not None:
                self.journal.record_submit(job)
            if request.wallclock_timeout_s is not None:
                self._push_deadline(
                    job.submitted_at + request.wallclock_timeout_s, "wall", job.id, -1
                )
            if request.after and self._dependency_state(job) != "ready":
                self._held[job.id] = job  # released (or doomed) by a round
            else:
                self.queue.push(job)
        return job

    def _validate(self, request: JobRequest) -> None:
        """Reject shapes the machine can never satisfy."""
        for dep in request.after:
            if dep not in self.jobs:
                raise JobError(f"dependency {dep!r} is not a known job id")
        if request.cores_per_task > self.grid.max_slave_cores:
            raise SchedulingError(
                f"a task needs {request.cores_per_task} cores but the largest node "
                f"has {self.grid.max_slave_cores}"
            )
        if request.total_cores > self.grid.cores_total:
            raise SchedulingError(
                f"job needs {request.total_cores} cores; the whole grid has {self.grid.cores_total}"
            )
        if request.need_gpu and not self.grid.gpu_nodes():
            raise SchedulingError("job needs a GPU but the grid has no GPU nodes")
        if request.node_type is not None and not self.grid.knows_type(request.node_type):
            raise SchedulingError(
                f"job needs node type {request.node_type!r} but the grid has no "
                f"such nodes and no pool advertises them"
            )

    # -- dispatch ------------------------------------------------------------
    def _dependency_state(self, job: Job) -> str:
        """'ready' | 'held' | 'doomed' for a queued job's dependencies."""
        doomed = False
        for dep_id in job.request.after:
            dep = self.jobs.get(dep_id)
            if dep is None or not dep.terminal:
                return "held"
            if job.request.after_ok and dep.state is not JobState.COMPLETED:
                doomed = True
        return "doomed" if doomed else "ready"

    def dispatch(self) -> int:
        """Request a scheduling pass; returns how many jobs this call started.

        Marks the distributor dirty and, if no drain is in flight, runs
        scheduling rounds until the dirty flag stays clear.  A call that
        lands while another thread is draining coalesces into that drain
        and returns 0 — the in-flight loop picks the work up.  A round
        that raises re-raises here and arms a wake-up ``_REDISPATCH_S``
        later, so the queue is tried again with no other trigger.

        Every public entry that can seal a job (a completion, a cancel, a
        node failure, a deadline, recovery) ends here, so this is where
        the sealed jobs reach the :meth:`on_sealed` listeners.
        """
        try:
            return self._drain()
        finally:
            self._publish_sealed()

    def _drain(self) -> int:
        """:meth:`dispatch`'s scheduling rounds."""
        with self._lock:
            self._counters["requests"] += 1
            self._dirty = True
            if self._draining:
                self._counters["coalesced"] += 1
                return 0
            self._draining = True
        started = 0
        try:
            while True:
                with self._lock:
                    if not self._dirty:
                        # Clearing _draining atomically with the dirty check
                        # closes the lost-wakeup window.
                        self._draining = False
                        self._idle.notify_all()
                        return started
                    self._dirty = False
                started += self._dispatch_round()
        except BaseException:
            with self._lock:
                self._draining = False
                self._arm_timer(self.now_fn() + _REDISPATCH_S)
                self._idle.notify_all()
            raise

    def _dispatch_round(self) -> int:
        """One scheduling round; returns how many jobs were started."""
        started = 0
        tel = self.telemetry
        t0 = time.perf_counter() if tel.on else 0.0
        with self._lock:
            self._counters["rounds"] += 1
            now = self.now_fn()
            self._enforce_deadlines(now)
            self._rejoin_probation(now)
            # Dependency gating over the held side table only (the main
            # queue never carries unresolved dependencies): released jobs
            # re-enter the queue at their submission-order position, jobs
            # whose required-success dependency failed are cancelled.
            if self._held:
                for job in list(self._held.values()):
                    state = self._dependency_state(job)
                    if state == "held":
                        continue
                    del self._held[job.id]
                    if state == "ready":
                        self.queue.push(job)
                    else:  # doomed
                        self._seal(job, JobState.CANCELLED, "dependency failed")
            # Jobs still serving their retry backoff are invisible to the
            # policy; a wake-up is armed for the earliest one instead.
            eligible, next_ready = ready_for_dispatch(self.queue.snapshot(), now)
            if next_ready is not None:
                self._arm_timer(next_ready)
            view = CapacityView(self.grid)
            picks = self.scheduler.select(
                eligible, self.grid, now=now, running=self._run_ends,
                view=view,
            )
            self._counters["jobs_examined"] += len(eligible)
            self._counters["placements_tried"] += view.probes
            for job, alloc in picks:
                if not self.queue.remove(job):
                    continue  # raced with a cancel
                if self._start(job, alloc.as_dict()):
                    started += 1
                else:
                    # Placement raced with a node failure: requeue (the
                    # ordered queue restores its original position).
                    self.queue.push(job)
            self._counters["jobs_started"] += started
            self._version += started
            self.monitor.sample(
                self.grid, self.now_fn(), queued=len(self.queue) + len(self._held)
            )
            if self.journal is not None and self.journal.snapshot_due:
                self.journal.snapshot(self.jobs)
        if tel.on:
            tel.h_round.observe(time.perf_counter() - t0)
        return started

    def _start(self, job: Job, placement: dict[str, int], resume: bool = False) -> bool:
        """Reserve ``placement`` for ``job`` and launch it there (lock held).

        A new attempt goes RUNNING under the next epoch and is journaled
        before its launch; ``resume`` relaunches the attempt a crash left
        in flight, under its journaled epoch.  Returns False, holding
        nothing, when a node refuses the reservation.  A launch that raises
        ends the attempt at once as failed (error ``launch failed: ...``)
        through the settle path, which frees its cores and journals it but
        does not count it against the nodes' health; that still counts as
        a start.
        """
        done: list[str] = []
        try:
            for node_name, cores in placement.items():
                self.grid.node(node_name).allocate(
                    job.id, cores,
                    memory_mb=job.request.memory_mb_per_task * (cores // job.request.cores_per_task),
                )
                done.append(node_name)
        except Exception:
            for node_name in done:
                self.grid.node(node_name).free(job.id)
            return False
        job.placement = placement
        if not resume:
            job.transition(JobState.RUNNING)
            job.started_at = self.now_fn()
            self._open_attempt(job)
            self.telemetry.job_started(job)
            if self.journal is not None:
                self.journal.record_start(job)
        self._running[job.id] = job
        try:
            handle = self._backend_for(job).launch(job)
        except Exception as exc:  # noqa: BLE001 - the attempt never ran
            self._end_attempt(job, "failed", f"launch failed: {exc}", blame_nodes=False)
            return True
        self._handles[job.id] = handle
        handle.on_done(self._attempt_done)
        return True

    def _open_attempt(self, job: Job) -> None:
        """Open the job's next attempt: the epoch bump, the run-time deadline
        when the request carries one, and the end estimate backfill reads."""
        job.attempt_epoch += 1
        if job.request.timeout_s is not None:
            self._push_deadline(
                job.started_at + job.request.timeout_s, "run", job.id, job.attempt_epoch
            )
        est = job.request.est_runtime_s
        if est is None:
            est = job.request.sim_duration
        if est is None:
            return  # estimate-less jobs are invisible to backfill
        entry = (job.started_at + est, job.request.total_cores)
        bisect.insort(self._run_ends, entry)
        self._run_entry[job.id] = entry

    def _deregister_running(self, job: Job) -> None:
        """Drop a job from the running structures (completion or fault)."""
        self._running.pop(job.id, None)
        entry = self._run_entry.pop(job.id, None)
        if entry is not None:
            i = bisect.bisect_left(self._run_ends, entry)
            if i < len(self._run_ends) and self._run_ends[i] == entry:
                del self._run_ends[i]

    def _running_estimates(self) -> RunningEstimates:
        """(estimated end, cores) for running jobs, end-sorted — O(active)."""
        with self._lock:
            return RunningEstimates(self._run_ends)

    # -- completion -----------------------------------------------------------
    def _attempt_done(self, handle: ExecutionHandle) -> None:
        """Backend callback: an attempt reported its result; settle it.

        A handle the distributor already retired (node death or an
        enforced timeout popped it) settles nothing: the fault path that
        retired it ended the attempt.
        """
        job = handle.job
        with self._lock:
            if self._handles.get(job.id) is not handle:
                return  # superseded attempt
            del self._handles[job.id]
            job.exit_code = handle.exit_code
            if handle.cancelled:
                outcome = "cancelled"
            elif handle.error == "timeout":
                outcome = "timeout"
                self._faults["timeouts"] += 1
            else:
                outcome = "completed" if handle.exit_code == 0 else "failed"
            self._end_attempt(job, outcome, handle.error)
        self.dispatch()

    def _end_attempt(
        self, job: Job, outcome: str, error: Optional[str], blame_nodes: bool = True
    ) -> bool:
        """Close ``job``'s live attempt as ``outcome`` and settle the job
        (lock held); True when it was requeued for another attempt."""
        self._finish_attempt(job, outcome, error, blame_nodes)
        return self._settle(job, outcome, error)

    def _settle(self, job: Job, outcome: str, error: Optional[str]) -> bool:
        """Retry or seal a job whose last attempt ended as ``outcome``
        (lock held); True when it was requeued for another attempt."""
        if self._should_retry(job, outcome):
            job.transition(JobState.RETRYING)
            self._requeue(job, outcome)
            return True
        self._seal(job, _SEALED_AS[outcome], error)
        return False

    def _finish_attempt(
        self, job: Job, outcome: str, error: Optional[str], blame_nodes: bool = True
    ) -> None:
        """Free the attempt's resources and record it on the lineage (lock held).

        Health accounting happens here: completions are heartbeats,
        failures/timeouts count against every node the attempt touched
        unless ``blame_nodes`` is False (a launch the backend refused) —
        crossing the flapping threshold drains the node (SUSPECT).
        """
        now = self.now_fn()
        for node_name in list(job.placement):
            # A scaled-in/reclaimed node may have left the inventory while
            # the attempt's completion callback was in flight.
            node = self.grid.get(node_name)
            if node is not None and node.holds(job.id):
                node.free(job.id)
        self._deregister_running(job)
        job.attempts.append(
            JobAttempt(
                no=job.attempt_epoch,
                placement=dict(job.placement),
                started_at=job.started_at,
                finished_at=now,
                outcome=outcome,
                error=error,
                exit_code=job.exit_code,
            )
        )
        if self.journal is not None:
            self.journal.record_attempt(job, job.attempts[-1])
        self.telemetry.attempt_finished(job, outcome, now)
        if self.health is not None:
            if outcome == "completed":
                for node_name in job.placement:
                    self.health.record_heartbeat(node_name, now)
            elif blame_nodes and outcome in ("failed", "timeout"):
                for node_name in job.placement:
                    if self.health.record_failure(node_name, now):
                        node = self.grid.get(node_name)
                        if node is not None and node.state is NodeState.UP:
                            node.mark_suspect()
                            self._faults["nodes_suspected"] += 1
                            self._version += 1
                            if self.telemetry.on:
                                self.telemetry.events.emit(
                                    "warning", "node_suspected", node=node_name
                                )

    def _requeue(self, job: Job, failure_class: str) -> None:
        """RETRYING → QUEUED with backoff; arms a wake-up (lock held)."""
        policy = job.request.retry or self.retry
        delay = policy.delay_for(job.attempt_epoch, self.rng) if policy else 0.0
        if job.attempts and delay > 0:
            job.attempts[-1] = dataclasses.replace(job.attempts[-1], backoff_s=delay)
        now = self.now_fn()
        job.not_before = now + delay
        job.placement = {}
        job.exit_code = None
        job.error = None
        job.transition(JobState.QUEUED)
        self.queue.push(job)
        if self.journal is not None:
            self.journal.record_requeue(job)
        self._faults["retries"] += 1
        if failure_class == "node_lost":
            self._faults["reroutes"] += 1
        self._version += 1
        self._dirty = True
        if delay > 0:
            self._arm_timer(job.not_before)

    def _seal(self, job: Job, state: JobState, error: Optional[str]) -> None:
        """Move ``job`` to the terminal ``state`` and account for it (lock held).

        The streams close and the error and finish time are set before
        the transition, so whoever sees a terminal state (a describe read
        without the lock) sees the job as it will stay; then the journal
        seal, the accounting record, and a wake-up for dependents and
        :meth:`wait_all`.  The :meth:`on_sealed` listeners get the job
        once the lock is released (:meth:`dispatch`).
        """
        job.stdout.close()
        job.stderr.close()
        job.stdin.close()
        job.error = error
        job.finished_at = self.now_fn()
        job.transition(state)
        if self.journal is not None:
            self.journal.record_seal(job)
        self.monitor.record_job(job)
        self._version += 1
        self._dirty = True
        self._idle.notify_all()
        if self._sealed_listeners:
            self._sealed.append(job)

    def on_sealed(self, listener: Callable[[Job], None]) -> None:
        """Call ``listener(job)`` once for every job sealed from now on.

        A job is handed over at its final seal only (a retried attempt is
        not one), after the lock is released, by the thread that sealed
        it; the job never changes again.  The listener may call back into
        the distributor.  One that raises loses its own delivery only.
        """
        self._sealed_listeners.append(listener)

    def _publish_sealed(self) -> None:
        """Hand the jobs sealed so far to the :meth:`on_sealed` listeners.

        Never under the lock: while this thread holds it (a completion
        reported inside a launch), the outermost :meth:`dispatch`
        publishes once it has let go.
        """
        if not self._sealed or self._lock._is_owned():
            return
        with self._lock:
            sealed, self._sealed = self._sealed, []
        for job in sealed:
            for listener in self._sealed_listeners:
                try:
                    listener(job)
                except Exception as exc:  # noqa: BLE001 - the seal stands
                    self.telemetry.events.emit(
                        "error", "sealed_listener_failed", job=job.id, error=repr(exc)
                    )

    # -- retry decisions --------------------------------------------------------
    def _should_retry(self, job: Job, failure_class: str) -> bool:
        """One more attempt allowed? Policy budget and wall budget (lock held)."""
        policy = job.request.retry or self.retry
        if policy is None or not policy.should_retry(failure_class, job.attempt_epoch):
            return False
        wall = job.request.wallclock_timeout_s
        if wall is not None and job.submitted_at is not None:
            # the same sum the wall deadline is queued at
            if self.now_fn() >= job.submitted_at + wall:
                return False
        return True

    # -- deadline enforcement ---------------------------------------------------
    def _push_deadline(self, when: float, kind: str, job_id: str, epoch: int) -> None:
        """Queue a run/wall deadline and arm a wake-up for it (lock held)."""
        heapq.heappush(self._deadlines, (when, next(self._deadline_seq), kind, job_id, epoch))
        self._arm_timer(when)

    def _enforce_deadlines(self, now: float) -> None:
        """Fire every due deadline exactly once (lock held).

        Stale entries — the attempt ended, the job is terminal, or a
        newer attempt is running under a different epoch — are skipped.
        """
        while self._deadlines and self._deadlines[0][0] <= now:
            _, _, kind, job_id, epoch = heapq.heappop(self._deadlines)
            job = self.jobs.get(job_id)
            if job is None or job.terminal:
                continue
            if kind == "run":
                if job.state is JobState.RUNNING and epoch == job.attempt_epoch:
                    self._timeout_running(job, wall=False)
            elif job.state is JobState.QUEUED:
                # Wall budget expired while waiting (or backing off).
                self.queue.remove(job)
                self._held.pop(job.id, None)
                self._faults["wall_timeouts"] += 1
                self._seal(job, JobState.TIMEOUT, "wallclock timeout")
            elif job.state is JobState.RUNNING:
                self._timeout_running(job, wall=True)
        if self._deadlines:
            # Earlier arms may have suppressed a wake-up for the new head.
            self._arm_timer(self._deadlines[0][0])

    def _timeout_running(self, job: Job, wall: bool) -> None:
        """Kill a RUNNING attempt whose deadline passed (lock held)."""
        handle = self._handles.pop(job.id)
        self._faults["wall_timeouts" if wall else "timeouts"] += 1
        # past the wall budget _should_retry says no: a wall timeout seals
        self._end_attempt(job, "timeout", "wallclock timeout" if wall else "timeout")
        handle.request_cancel()  # its eventual report is now a zombie

    # -- node fault API ---------------------------------------------------------
    def fail_node(self, node_name: str) -> list[Job]:
        """Take a node out of service, rerouting or failing its jobs.

        The node's running attempts are ended at once as ``node_lost``
        (their eventual backend reports settle nothing); each orphaned job is
        requeued onto surviving capacity when its retry budget allows the
        ``node_lost`` class, and sealed FAILED otherwise.  Returns the
        rerouted jobs.

        Idempotent: failing an already-DOWN node is a no-op returning
        ``[]`` — a spot reclamation racing a health-driven downing (or a
        duplicate RPC delivery) must not double-requeue or crash.
        """
        rerouted: list[Job] = []
        with self._lock:
            node = self.grid.node(node_name)
            if node.state is NodeState.DOWN:
                return rerouted
            victims = node.mark_down()
            now = self.now_fn()
            self._faults["node_failures"] += 1
            self._version += 1
            if self.health is not None:
                self.health.record_down(node_name, now)
            if self.telemetry.on:
                self.telemetry.events.emit(
                    "error", "node_failed", node=node_name, victims=len(victims)
                )
            for job_id in victims:
                handle = self._handles.pop(job_id, None)
                if handle is None:
                    continue
                job = handle.job
                self._faults["jobs_orphaned"] += 1
                if self._end_attempt(job, "node_lost", f"node {node_name} failed"):
                    rerouted.append(job)
                handle.request_cancel()  # its eventual report is now a zombie
        self.dispatch()
        return rerouted

    def recover_node(self, node_name: str) -> None:
        """Bring a DOWN/SUSPECT/DRAINING node back and re-run dispatch.

        Idempotent: recovering an already-UP node is a no-op — repeat
        deliveries of the same recovery event must not crash or inflate
        the fault counters.
        """
        with self._lock:
            node = self.grid.node(node_name)
            if node.state is NodeState.UP:
                return
            node.mark_up()
            self._faults["nodes_recovered"] += 1
            self._version += 1
            if self.health is not None:
                self.health.record_up(node_name, self.now_fn())
            if self.telemetry.on:
                self.telemetry.events.emit("info", "node_recovered", node=node_name)
        self.dispatch()

    # -- fleet membership API ---------------------------------------------------
    def add_node(self, segment_name: str, spec, name: Optional[str] = None):
        """Join a new node to the fleet; dispatches onto it immediately.

        The join flows through the capacity observer chain as an ordinary
        capacity event, so waiting queued jobs can land on the new node in
        the very next scheduling round.  Returns the
        :class:`~repro.cluster.node.Node`.
        """
        with self._lock:
            node = self.grid.add_node(segment_name, spec, name=name)
            self._faults["nodes_joined"] += 1
            self._version += 1
            if self.health is not None:
                self.health.record_up(node.name, self.now_fn())
            if self.telemetry.on:
                self.telemetry.events.emit(
                    "info", "node_joined", node=node.name, segment=segment_name
                )
        self.dispatch()
        return node

    def remove_node(self, node_name: str, force: bool = False) -> list[Job]:
        """Retire a node from the fleet entirely.

        Graceful removal (``force=False``) refuses a node still running
        work — scale-in drains first and removes once idle.  ``force=True``
        is the spot-reclamation path: running attempts are retired as
        ``node_lost`` through :meth:`fail_node` (same retry budget, same
        requeue) and the node then leaves the inventory.  Returns the
        rerouted jobs (always ``[]`` when graceful).
        """
        rerouted: list[Job] = []
        if not force:
            with self._lock:
                node = self.grid.node(node_name)
                if node.running_jobs:
                    raise ResourceError(
                        f"node {node_name!r} is still running "
                        f"{len(node.running_jobs)} job(s); drain it first or force"
                    )
                self._drop_node(node_name, forced=False)
            self.dispatch()
            return rerouted
        rerouted = self.fail_node(node_name)
        with self._lock:
            self._drop_node(node_name, forced=True)
        self.dispatch()
        return rerouted

    def _drop_node(self, node_name: str, forced: bool) -> None:
        """Forget a node and account for the removal (lock held)."""
        self.grid.remove_node(node_name)
        self._faults["nodes_removed"] += 1
        self._version += 1
        if self.telemetry.on:
            self.telemetry.events.emit(
                "info", "node_removed", node=node_name, forced=forced
            )

    def add_segment(self, spec):
        """Provision a whole new segment; dispatches onto it immediately.

        The reconfigure path's pure-growth case — a
        :class:`~repro.cluster.spec.SegmentSpec` becomes live capacity
        through the same observer chain as :meth:`add_node`.
        """
        with self._lock:
            seg = self.grid.add_segment(spec)
            self._faults["nodes_joined"] += len(seg.slaves)
            self._version += 1
            if self.health is not None:
                now = self.now_fn()
                for node in seg.slaves:
                    self.health.record_up(node.name, now)
            if self.telemetry.on:
                self.telemetry.events.emit(
                    "info", "segment_joined", segment=seg.name, slaves=len(seg.slaves)
                )
        self.dispatch()
        return seg

    def remove_segment(self, name: str):
        """Retire a whole drained segment (reconfigure destroy path)."""
        with self._lock:
            seg = self.grid.remove_segment(name)
            self._faults["nodes_removed"] += len(seg.slaves)
            self._version += 1
            if self.telemetry.on:
                self.telemetry.events.emit(
                    "info", "segment_removed", segment=name, slaves=len(seg.slaves)
                )
        self.dispatch()
        return seg

    def replace_master(self, spec, segment: Optional[str] = None):
        """Rebuild the grid master (or ``segment``'s master) with ``spec``.

        Masters run no compute attempts, so nothing needs rerouting; the
        reconfigure layer still classifies this destroy-recreate and
        refuses it while jobs are live.
        """
        with self._lock:
            if segment is None:
                node = self.grid.replace_master_server(spec)
            else:
                node = self.grid.replace_segment_master(segment, spec)
            self._version += 1
            if self.telemetry.on:
                self.telemetry.events.emit(
                    "info", "master_replaced", node=node.name,
                    segment=segment or "grid",
                )
        return node

    def _rejoin_probation(self, now: float) -> None:
        """Return idle SUSPECT nodes whose quiet period elapsed (lock held)."""
        if self.health is None:
            return
        for name in self.health.due_probation(now):
            node = self.grid.get(name)
            if node is None:
                continue  # removed from the fleet while on probation
            if node.state is NodeState.SUSPECT and not node.running_jobs:
                node.mark_up()
                self.health.record_up(name, now)
                self._faults["nodes_rejoined"] += 1
                self._version += 1
                if self.telemetry.on:
                    self.telemetry.events.emit("info", "node_rejoined", node=name)

    # -- wake-up timers ---------------------------------------------------------
    def _arm_timer(self, when: float) -> None:
        """Schedule a dispatch at ``when`` unless an earlier one is armed
        (lock held).  Extra firings are harmless — dispatch coalesces."""
        if self._timer_at is not None and self._timer_at <= when:
            return
        self._timer_at = when
        self._defer_fn(max(0.0, when - self.now_fn()), self._timer_fire)

    def _timer_fire(self) -> None:
        with self._lock:
            self._timer_at = None
        self.dispatch()

    def _backend_for(self, job: Job) -> ExecutionBackend:
        """The backend that should run this job.

        Callable requests submitted to an argv-oriented distributor (the
        portal's default uses :class:`SubprocessBackend`) are routed to a
        lazily-created companion :class:`CallableBackend` so in-process
        service jobs — notably the exploration workload — can share the
        cluster's queueing, placement and fault machinery.  A simulated
        distributor stays pure: virtual time must not silently spawn
        real threads, so the historical error is preserved there.
        """
        if (
            job.request.callable is not None
            and not isinstance(self.backend, (CallableBackend, SimulatedBackend))
        ):
            if self._callable_backend is None:
                self._callable_backend = CallableBackend()
            return self._callable_backend
        return self.backend

    def _default_defer(self, delay: float, cb: Callable[[], None]) -> None:
        if isinstance(self.backend, SimulatedBackend):
            sim = self.backend.sim
            sim._subscribe(sim.timeout(max(0.0, delay)), lambda _ev: cb())
        else:
            t = threading.Timer(max(0.0, delay), cb)
            t.daemon = True
            t.start()

    # -- control ---------------------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel a job in any non-terminal state. Returns success."""
        with self._lock:
            job = self.jobs.get(job_id)
            if job is None:
                raise JobError(f"unknown job {job_id!r}")
            if job.terminal:
                return False
            handle = self._handles.get(job_id)
            if handle is None:  # queued, or held on its dependencies
                self.queue.remove(job)
                self._held.pop(job.id, None)
                self._seal(job, JobState.CANCELLED, None)
        if handle is not None:
            handle.request_cancel()  # the attempt reports; _attempt_done seals
        else:
            self.dispatch()
        return True

    def job(self, job_id: str) -> Job:
        """Look up a job by id."""
        try:
            return self.jobs[job_id]
        except KeyError:
            raise JobError(f"unknown job {job_id!r}") from None

    @property
    def version(self) -> int:
        """Monotone job-state-change counter (see ``_version``)."""
        return self._version

    # -- durability -------------------------------------------------------------
    def checkpoint(self) -> dict:
        """Force a journal snapshot + compaction now; returns its summary.

        Exposed over the bus as ``cluster.checkpoint`` so an operator (or
        a pre-maintenance hook) can bound the replay work of the next
        boot.  Raises :class:`JobError` when no journal is configured.
        """
        if self.journal is None:
            raise JobError("distributor has no journal; durability is off")
        with self._lock:
            return self.journal.snapshot(self.jobs)

    def durability_stats(self) -> dict:
        """Journal/recovery counters (``{"enabled": False}`` when off)."""
        if self.journal is None:
            return {"enabled": False}
        with self._lock:
            out = self.journal.stats()
        if self.last_recovery is not None:
            out["last_recovery"] = self.last_recovery.as_dict()
        return out

    def control_state(self) -> dict:
        """The cheap freshness fingerprint remote front-ends poll.

        ``(version, cores_free)`` is exactly the pair the portal keys
        its cluster-status cache on; serving it as one small RPC lets a
        front-end revalidate a cached snapshot without shipping the full
        ``stats()`` rendering across the bus.
        """
        return {"version": self._version, "cores_free": self.grid.cores_free}

    def _busy(self) -> bool:
        """Anything queued, held on dependencies, or running? (lock held)"""
        return bool(len(self.queue) or self._held or self._running)

    def wait_all(self, timeout: float = 60.0) -> bool:
        """Block until no job is queued or running (wall-clock backends).

        Event-driven: waits on a condition variable signalled at every
        terminal transition and drain completion — no polling sleep.
        """
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._busy():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def stats(self) -> dict:
        """Queue/running/terminal counts, grid utilisation, dispatch counters."""
        with self._lock:
            by_state: dict[str, int] = {}
            for j in self.jobs.values():
                by_state[j.state.value] = by_state.get(j.state.value, 0) + 1
            return {
                "jobs": dict(by_state),
                "queued": len(self.queue) + len(self._held),
                "grid": self.grid.snapshot(),
                "policy": self.scheduler.name,
                "dispatch": self.telemetry.dispatch_counters(),
                "faults": self.telemetry.fault_counters(),
                "health": self.health.snapshot() if self.health is not None else None,
                "durability": (
                    self.journal.stats() if self.journal is not None
                    else {"enabled": False}
                ),
            }
