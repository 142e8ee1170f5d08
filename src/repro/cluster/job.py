"""Job model: what users submit and how it moves through its lifecycle.

The portal's Section-II contract: a job is *sequential* (one task on one
node), *parallel* (``n_tasks`` ranks spread over nodes) or *interactive*
(sequential + an open stdin channel).  Lifecycle::

    PENDING -> QUEUED -> RUNNING -> {COMPLETED, FAILED, TIMEOUT}
         \\-> CANCELLED (from PENDING/QUEUED/RUNNING/RETRYING)
                  QUEUED -> TIMEOUT (wall-clock budget expired in queue)
                  RUNNING -> RETRYING -> QUEUED (fault-tolerant requeue)

A failed or timed-out *attempt* whose :class:`RetryPolicy` still has
budget moves the job RUNNING → RETRYING → QUEUED instead of sealing it;
each finished attempt is recorded as a :class:`JobAttempt` so the portal
can show the full lineage.  FAILED/TIMEOUT/COMPLETED/CANCELLED remain
strictly terminal.

Transitions are validated; illegal moves raise :class:`JobError` — an
invariant the property tests exercise heavily.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro._errors import JobError
from repro.cluster.streams import InteractiveChannel, StreamCapture
from repro.wire import codec

__all__ = ["JobKind", "JobState", "JobRequest", "Job", "JobAttempt", "JobSnapshot", "RetryPolicy"]


class _JobSeq:
    """Monotone job-id sequence, advanceable past restored ids.

    Recovery restores jobs whose ``seq`` was assigned by a previous
    process; bumping the counter past them guarantees a fresh submission
    can never mint a colliding ``job-%06d`` id.
    """

    def __init__(self) -> None:
        self._n = 0
        self._lock = threading.Lock()

    def __next__(self) -> int:
        with self._lock:
            self._n += 1
            return self._n

    def advance_past(self, seq: int) -> None:
        with self._lock:
            self._n = max(self._n, int(seq))


_job_counter = _JobSeq()


class JobKind(enum.Enum):
    """Execution shape of a job."""

    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"
    INTERACTIVE = "interactive"


class JobState(enum.Enum):
    """Lifecycle states."""

    PENDING = "pending"      # created, not yet accepted by the distributor
    QUEUED = "queued"        # waiting for resources
    RUNNING = "running"
    RETRYING = "retrying"    # attempt failed; being requeued under a RetryPolicy
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"


_TERMINAL = {JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED, JobState.TIMEOUT}

_ALLOWED: dict[JobState, set[JobState]] = {
    JobState.PENDING: {JobState.QUEUED, JobState.CANCELLED},
    # QUEUED -> TIMEOUT: the wall-clock budget can expire before a start;
    # QUEUED -> FAILED: work that cannot run any more (a callable lost in
    # a restart) fails unrun.
    JobState.QUEUED: {JobState.RUNNING, JobState.CANCELLED, JobState.TIMEOUT, JobState.FAILED},
    JobState.RUNNING: {
        JobState.COMPLETED,
        JobState.FAILED,
        JobState.CANCELLED,
        JobState.TIMEOUT,
        JobState.RETRYING,
    },
    # RETRYING -> FAILED/TIMEOUT covers a requeue that can no longer
    # succeed (e.g. the retry budget raced with a wall-clock deadline).
    JobState.RETRYING: {
        JobState.QUEUED,
        JobState.CANCELLED,
        JobState.FAILED,
        JobState.TIMEOUT,
    },
}


_RETRY_CLASSES = frozenset({"failed", "timeout", "node_lost"})


@dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) failed attempts are retried.

    ``max_attempts`` counts *every* attempt including the first, so
    ``max_attempts=3`` allows two retries.  Backoff between attempts is
    exponential with multiplicative jitter drawn from the distributor's
    seeded RNG — deterministic under a fixed seed, which the reliability
    battery asserts.

    ``retry_on`` selects which failure classes are retried:

    * ``"failed"``   — the attempt exited non-zero / raised;
    * ``"timeout"``  — the attempt exceeded ``timeout_s``;
    * ``"node_lost"`` — the node running the attempt died (the job is
      requeued and rerouted to surviving nodes).
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    backoff_max_s: float = 30.0
    jitter: float = 0.1
    retry_on: frozenset[str] = _RETRY_CLASSES

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise JobError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise JobError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise JobError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if not 0 <= self.jitter < 1:
            raise JobError(f"jitter must be in [0, 1), got {self.jitter}")
        unknown = set(self.retry_on) - _RETRY_CLASSES
        if unknown:
            raise JobError(f"unknown retry classes {sorted(unknown)}; pick from {sorted(_RETRY_CLASSES)}")
        # Accept any iterable for convenience but store a frozenset.
        if not isinstance(self.retry_on, frozenset):
            object.__setattr__(self, "retry_on", frozenset(self.retry_on))

    def should_retry(self, failure_class: str, attempts_used: int) -> bool:
        """Is another attempt allowed after ``attempts_used`` attempts?"""
        return failure_class in self.retry_on and attempts_used < self.max_attempts

    def delay_for(self, attempt_no: int, rng=None) -> float:
        """Backoff before the retry that follows attempt ``attempt_no`` (1-based).

        ``rng`` (a ``numpy`` Generator) supplies the jitter draw; pass the
        same seeded generator to reproduce the exact schedule.
        """
        delay = min(self.backoff_max_s, self.backoff_base_s * self.backoff_factor ** max(0, attempt_no - 1))
        if rng is not None and self.jitter and delay > 0:
            delay *= 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return delay


@dataclass(frozen=True)
class JobAttempt:
    """One finished execution attempt — the unit of the job's lineage."""

    no: int
    placement: dict[str, int]
    started_at: Optional[float]
    finished_at: Optional[float]
    outcome: str            # completed | failed | timeout | node_lost | cancelled
    error: Optional[str] = None
    exit_code: Optional[int] = None
    backoff_s: Optional[float] = None  # delay before the *next* attempt, if retried

    def as_dict(self) -> dict:
        return {**vars(self), "placement": dict(self.placement)}


@dataclass
class JobSnapshot:
    """A job as the journal keeps it, the one declaration of its keys, their
    order and their defaults: ``job_wire`` encodes a live job by it,
    ``replay`` folds records onto it and :meth:`Job.restore` decodes it."""

    id: str
    seq: int
    request: dict  # the sparse request wire (``request_wire``)
    state: JobState
    attempt_epoch: int = 0
    attempts: list = field(default_factory=list)  # ``JobAttempt.as_dict()`` each
    placement: dict = field(default_factory=dict)
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    not_before: float = 0.0
    error: Optional[str] = None
    exit_code: Optional[int] = None


#: the argv of a request restored from the journal's stub for a live
#: callable: it runs nothing, and ``request_wire`` gives back the stub
LOST_CALLABLE_ARGV = ["<callable lost in restart>"]


@dataclass
class JobRequest:
    """Everything a user specifies when submitting.

    Exactly one of ``argv`` (command line for the subprocess backend),
    ``callable`` (Python function) or ``sim_duration`` (virtual seconds
    for the DES backend) describes *what* to run; the rest describes the
    resource shape and policy knobs.
    """

    name: str = "job"
    owner: str = ""
    kind: JobKind = JobKind.SEQUENTIAL
    argv: Optional[list[str]] = None
    callable: Optional[Callable[..., Any]] = None
    sim_duration: Optional[float] = None
    n_tasks: int = 1
    cores_per_task: int = 1
    memory_mb_per_task: int = 0
    need_gpu: bool = False
    node_type: Optional[str] = None
    """Pin placement to nodes whose :attr:`NodeSpec.node_type` tag matches
    exactly (``"gpu"``, ``"bigmem"``, ...); ``None`` accepts any node."""
    priority: int = 0
    timeout_s: Optional[float] = None
    wallclock_timeout_s: Optional[float] = None
    """Total budget from submission — queue wait, retries and all; when it
    expires the job times out wherever it is (even still QUEUED)."""
    est_runtime_s: Optional[float] = None
    """User-supplied runtime estimate; enables EASY backfilling."""
    after: tuple[str, ...] = ()
    """Job ids that must reach a terminal state before this job may start.

    ``after_ok`` additionally requires them to have COMPLETED; a failed
    dependency then cancels this job instead of running it.
    """
    after_ok: bool = False
    stdin_data: str = ""
    env: dict[str, str] = field(default_factory=dict)
    workdir: Optional[str] = None
    # The field order is the wire order, and journals put ``retry`` last.
    retry: Optional[RetryPolicy] = None
    """Per-job retry policy; ``None`` falls back to the distributor's
    default (which is itself ``None`` — no retries — unless configured)."""

    def __post_init__(self) -> None:
        if self.n_tasks < 1 or self.cores_per_task < 1:
            raise JobError(
                f"job shape must be >= 1 task x >= 1 core, got "
                f"{self.n_tasks} x {self.cores_per_task}"
            )
        if self.memory_mb_per_task < 0:
            raise JobError("memory_mb_per_task must be >= 0")
        specified = [x is not None for x in (self.argv, self.callable, self.sim_duration)]
        if sum(specified) != 1:
            raise JobError(
                "exactly one of argv / callable / sim_duration must be given "
                f"(got {sum(specified)})"
            )
        for label, value in (("timeout_s", self.timeout_s),
                             ("wallclock_timeout_s", self.wallclock_timeout_s)):
            if value is not None and value <= 0:
                raise JobError(f"{label} must be positive, got {value}")
        if self.node_type is not None and not self.node_type:
            raise JobError("node_type must be None or a non-empty tag")
        if self.kind is JobKind.SEQUENTIAL and self.n_tasks != 1:
            raise JobError("sequential jobs have exactly one task; use kind=PARALLEL")
        if self.kind is JobKind.INTERACTIVE and self.n_tasks != 1:
            raise JobError("interactive jobs have exactly one task")

    @property
    def total_cores(self) -> int:
        return self.n_tasks * self.cores_per_task

    # -- wire codec (repro.bus RPC boundary, journal) ------------------------
    def to_wire(self) -> dict:
        """JSON-safe form for the front-end → back-end RPC boundary: every
        field in declaration order, by its type hint (:mod:`repro.wire`).

        ``callable`` jobs cannot cross the bus — a live function has no
        wire form; the front-end tier only submits ``argv`` and
        ``sim_duration`` work.
        """
        if self.callable is not None:
            raise JobError("callable jobs cannot cross the bus; submit argv instead")
        return codec(JobRequest).encode(self)

    @classmethod
    def from_wire(cls, wire: dict) -> "JobRequest":
        """Rebuild a request from :meth:`to_wire` output (validates anew).

        An absent or null field takes its default; a wrongly typed field
        is a :class:`ValueError` naming it, never coerced; unknown keys
        are ignored.
        """
        return codec(cls).decode(wire)


class Job:
    """A submitted job: request + state + placement + captured streams."""

    def __init__(self, request: JobRequest, job_id: str | None = None) -> None:
        self.request = request
        #: monotone creation sequence — the queue keeps jobs sorted by it,
        #: so a re-queued job regains its original submission position.
        self.seq = next(_job_counter)
        self.id = job_id or f"job-{self.seq:06d}"
        self._state = JobState.PENDING
        self._lock = threading.Lock()
        self.stdout = StreamCapture(f"{self.id}.stdout")
        self.stderr = StreamCapture(f"{self.id}.stderr")
        self.stdin = InteractiveChannel(f"{self.id}.stdin")
        if request.stdin_data:
            self.stdin.write(request.stdin_data)
        if request.kind is not JobKind.INTERACTIVE:
            self.stdin.close()
        self.exit_code: Optional[int] = None
        self.error: Optional[str] = None
        self.result: Any = None
        #: node name -> cores held there (set by the distributor)
        self.placement: dict[str, int] = {}
        self.submitted_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        # -- fault-tolerance bookkeeping (owned by the distributor) -------
        #: finished attempts, oldest first (the lineage the portal shows)
        self.attempts: list[JobAttempt] = []
        #: attempt generation: bumped each time an attempt starts; the
        #: lineage's attempt numbers and the run deadlines carry it.
        self.attempt_epoch = 0
        #: earliest time the job may be dispatched (retry backoff)
        self.not_before = 0.0

    # -- state machine -------------------------------------------------------
    @property
    def state(self) -> JobState:
        return self._state

    @property
    def terminal(self) -> bool:
        """``True`` once the job can change no further."""
        return self._state in _TERMINAL

    def transition(self, to: JobState) -> None:
        """Move to ``to``; raises :class:`JobError` on an illegal edge."""
        with self._lock:
            allowed = _ALLOWED.get(self._state, set())
            if to not in allowed:
                raise JobError(
                    f"job {self.id}: illegal transition {self._state.value} -> {to.value}"
                )
            self._state = to

    def try_transition(self, to: JobState) -> bool:
        """Like :meth:`transition` but returns False instead of raising."""
        try:
            self.transition(to)
            return True
        except JobError:
            return False

    # -- convenience -----------------------------------------------------------
    @property
    def runtime_s(self) -> Optional[float]:
        """Wall (or virtual) runtime, when both timestamps exist."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def wait_s(self) -> Optional[float]:
        """Queue wait time, when known."""
        if self.submitted_at is None or self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    def describe(self) -> dict:
        """JSON-ready summary (what the portal's job page shows)."""
        return {
            "id": self.id,
            "name": self.request.name,
            "owner": self.request.owner,
            "kind": self.request.kind.value,
            "state": self._state.value,
            "n_tasks": self.request.n_tasks,
            "cores_per_task": self.request.cores_per_task,
            "priority": self.request.priority,
            "placement": dict(self.placement),
            "exit_code": self.exit_code,
            "error": self.error,
            "runtime_s": self.runtime_s,
            "wait_s": self.wait_s,
            "attempt": self.attempt_epoch,
            "retries": max(0, self.attempt_epoch - 1),
            "attempts": [a.as_dict() for a in self.attempts],
        }

    # -- durability ------------------------------------------------------------
    @classmethod
    def restore(cls, wire: dict) -> "Job":
        """Rebuild a job from its :class:`JobSnapshot` wire state.

        The inverse of :func:`repro.durability.joblog.job_wire`: state is
        installed directly (the original transitions were validated when
        they first happened), the global id sequence advances past the
        restored ``seq``, and streams come back *empty* — stdout/stderr
        content is not journaled, only the lineage that produced it.
        Requests that could not cross the wire (live callables) are
        restored under a stub (:data:`LOST_CALLABLE_ARGV`) so the lineage
        stays inspectable; recovery decides what to do with the
        non-relaunchable work.
        """
        values = vars(codec(JobSnapshot).decode(wire))
        request = values["request"]
        if "_unrecoverable" in request:
            request = {**request, "argv": LOST_CALLABLE_ARGV}
        job = cls.__new__(cls)
        job._state = values.pop("state")
        job.__dict__.update(
            values,
            request=JobRequest.from_wire(request),
            attempts=[JobAttempt(**a) for a in values["attempts"]],
            result=None,
            _lock=threading.Lock(),
        )
        _job_counter.advance_past(job.seq)
        job.stdout = StreamCapture(f"{job.id}.stdout")
        job.stderr = StreamCapture(f"{job.id}.stderr")
        job.stdin = InteractiveChannel(f"{job.id}.stdin")
        if job.request.kind is not JobKind.INTERACTIVE or job.terminal:
            job.stdin.close()
        if job.terminal:
            job.stdout.close()
            job.stderr.close()
        return job

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Job {self.id} {self.request.name!r} {self._state.value}>"
