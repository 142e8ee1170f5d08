"""Recovery-on-boot: rebuild a distributor from its journal directory.

:func:`recover_distributor` is the boot path a restarted portal calls
instead of constructing a bare :class:`JobDistributor`:

1. read the durable truth — snapshot + journal records
   (:meth:`DurabilityStore.recover`, torn-tail tolerant);
2. fold it into per-job wire state (:func:`repro.durability.joblog.replay`);
3. restore every job object (terminal jobs keep their full attempt
   lineage; the id sequence advances past every restored ``seq`` so new
   submissions can never collide);
4. **reconcile** non-terminal jobs against live node reports:

   * an attempt in flight on nodes that are all in ``live_nodes`` is
     *resumed* — the distributor's one launch re-reserves its placement
     and relaunches it under the same attempt epoch (the work restarts;
     at-least-once);
   * an attempt on any dead/unknown node is ended as ``node_lost`` and
     settled by the distributor's one retry-or-seal decision — same
     budget accounting, same backoff, same lineage records — so it is
     requeued, or sealed FAILED when the budget (or a wall-clock
     deadline) says no;
   * a journaled-but-undecided attempt outcome (the crash landed between
     the attempt record and its requeue/seal) is re-decided by the same
     decision: a journaled ``completed`` seals COMPLETED without
     re-running — this is what makes replay idempotent and
     double-completion impossible;
   * queued jobs re-enter the queue at their submission-order position
     (backoff ``not_before`` preserved), wall-clock deadlines re-arm.

Every action recovery takes is itself journaled through the *new*
journal, so a crash during recovery replays to the same state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.cluster.distributor import JobDistributor
from repro.cluster.job import Job, JobState
from repro.durability.joblog import JobJournal, replay
from repro.durability.store import DurabilityStore

__all__ = ["RecoveryReport", "recover_distributor"]


@dataclass
class RecoveryReport:
    """What recovery found and did — exposed over ``cluster.durability``."""

    snapshot_lsn: Optional[int] = None
    records_replayed: int = 0
    torn_tail: bool = False
    jobs_restored: int = 0
    terminal_restored: int = 0
    resumed_in_flight: int = 0
    requeued_in_flight: int = 0
    requeued_queued: int = 0
    sealed_completed: int = 0
    sealed_no_budget: int = 0
    sealed_unrecoverable: int = 0
    duration_s: float = 0.0
    segments: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "snapshot_lsn": self.snapshot_lsn,
            "records_replayed": self.records_replayed,
            "torn_tail": self.torn_tail,
            "jobs_restored": self.jobs_restored,
            "terminal_restored": self.terminal_restored,
            "resumed_in_flight": self.resumed_in_flight,
            "requeued_in_flight": self.requeued_in_flight,
            "requeued_queued": self.requeued_queued,
            "sealed_completed": self.sealed_completed,
            "sealed_no_budget": self.sealed_no_budget,
            "sealed_unrecoverable": self.sealed_unrecoverable,
            "duration_s": self.duration_s,
            "segments": list(self.segments),
        }


def _in_flight(job: Job) -> bool:
    """Attempt open at crash time: epoch advanced past the journaled lineage."""
    last = job.attempts[-1].no if job.attempts else 0
    return job.attempt_epoch > last


def recover_distributor(
    store: DurabilityStore,
    grid,
    backend,
    *,
    live_nodes: Optional[Iterable[str]] = None,
    snapshot_every: int = JobJournal.SNAPSHOT_EVERY,
    **distributor_kwargs,
) -> tuple[JobDistributor, RecoveryReport]:
    """Boot a :class:`JobDistributor` from ``store`` and reconcile it.

    ``live_nodes`` is the set of node names whose reports survived the
    restart (default: none — the usual full-process crash).  All other
    constructor keywords (scheduler, retry, now_fn, ...) pass through to
    :class:`JobDistributor`.
    """
    t0 = time.perf_counter()
    report = RecoveryReport()
    snapshot_state, records, info = store.recover()
    report.snapshot_lsn = info["snapshot_lsn"]
    report.records_replayed = info["records_replayed"]
    report.torn_tail = info["torn_tail"]
    report.segments = info["segments"]
    state = replay(snapshot_state, records)

    journal = JobJournal(store, snapshot_every=snapshot_every)
    dist = JobDistributor(grid, backend, journal=journal, **distributor_kwargs)
    live = frozenset(live_nodes or ())

    with dist._lock:
        now = dist.now_fn()
        for wire in sorted(state.values(), key=lambda w: w["seq"]):
            job = Job.restore(wire)
            dist.jobs[job.id] = job
            report.jobs_restored += 1
            if job.terminal:
                dist.monitor.record_job(job)
                report.terminal_restored += 1
                continue
            wall = job.request.wallclock_timeout_s
            if wall is not None and job.submitted_at is not None:
                dist._push_deadline(job.submitted_at + wall, "wall", job.id, -1)
            if "_unrecoverable" in wire["request"]:
                # a live callable died with the old process; its lineage
                # survives but the work cannot be relaunched.
                dist._seal(job, JobState.FAILED, "callable lost in restart (not journalable)")
                report.sealed_unrecoverable += 1
                continue
            if job.state is JobState.RUNNING:
                if _in_flight(job):
                    resumable = job.placement and job.placement.keys() <= live
                    if resumable and dist._start(job, job.placement, resume=True):
                        report.resumed_in_flight += 1
                        continue
                    outcome, error = "node_lost", "lost in distributor crash"
                    dist._finish_attempt(job, outcome, error)
                else:
                    # attempt outcome journaled, next step was not.
                    last = job.attempts[-1]
                    outcome, error, job.exit_code = last.outcome, last.error, last.exit_code
                if dist._settle(job, outcome, error):
                    report.requeued_in_flight += 1
                elif outcome == "completed":
                    report.sealed_completed += 1
                elif outcome != "cancelled":
                    report.sealed_no_budget += 1
            else:  # queued (possibly in backoff)
                dist.queue.push(job)
                if job.not_before > now:
                    dist._arm_timer(job.not_before)
                report.requeued_queued += 1
        dist._dirty = True
    dist.dispatch()
    report.duration_s = time.perf_counter() - t0
    if journal.telemetry is not None:
        journal.telemetry.recovery_done(report)
    dist.last_recovery = report
    return dist, report
