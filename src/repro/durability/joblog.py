"""The distributor's journal: record kinds, snapshot payloads, replay fold.

:class:`JobJournal` is what a :class:`~repro.cluster.distributor.JobDistributor`
holds when durability is on.  Every state-machine transition becomes one
append-only record (written under the distributor lock, so journal order
*is* commit order):

==========  ==================================================================
``submit``  job accepted: id, seq, wire-form request, submit time
``start``   attempt opened: epoch, placement, start time (pre backend launch)
``attempt`` attempt closed: the full :class:`JobAttempt` dict (lineage entry)
``requeue`` RETRYING → QUEUED: backoff ``not_before``
``seal``    terminal: final state, error, exit code, finish time
==========  ==================================================================

:func:`replay` is the *pure fold* that turns (snapshot, records) back
into per-job wire state.  It is deliberately side-effect free and total:
replaying any prefix of a journal equals folding that prefix's records —
the property the hypothesis battery pins down — and attempt epochs are
monotone along the way because ``start`` records carry the epoch the
distributor (whose epochs are monotone per job) assigned.

Requests that cannot round-trip the wire codec (live ``callable``
objects) are journaled as a degraded stub; their *lineage* survives a
restart but the work itself cannot be relaunched — recovery seals any
such non-terminal job FAILED rather than silently dropping it.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Optional

from repro.cluster.job import LOST_CALLABLE_ARGV, JobSnapshot, JobState
from repro.durability.store import DurabilityStore
from repro.wire import dataclass_fields

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.job import Job

__all__ = ["JobJournal", "replay", "request_wire"]

# The flat record kinds (start/attempt/requeue/seal) are rendered by
# hand instead of going dict -> JSONEncoder: their shape is fixed, and
# skipping the dict build plus the generic encoder roughly halves the
# per-record append cost — which is what keeps journaled dispatch inside
# the bench_durability throughput floor.  ``submit`` still runs the real
# encoder for its nested request payload.
_escape = json.encoder.encode_basestring_ascii  # str -> quoted JSON string


def _jstr(s: Optional[str]) -> str:
    return "null" if s is None else _escape(s)


def _num(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, int):
        return str(x)
    return repr(x)  # repr(float) is shortest-roundtrip and valid JSON


def _placement(p: dict) -> str:
    if not p:
        return "{}"
    if len(p) == 1:  # the common case: a sequential job on one node
        (k, v), = p.items()
        return f"{{{_escape(k)}:{int(v)}}}"
    return "{" + ",".join(f"{_escape(k)}:{int(v)}" for k, v in p.items()) + "}"


#: the one declaration of a journaled job's keys, order and defaults
_SNAPSHOT = dataclass_fields(JobSnapshot)


def request_wire(request) -> dict:
    """Sparse wire form of a request, degrading callables to a recoverable stub.

    Fields at their declared defaults are dropped (``from_wire`` restores
    them), which keeps the largest per-job record to a handful of keys;
    only the other fields are encoded.  The stub a restart leaves of a
    callable (:data:`~repro.cluster.job.LOST_CALLABLE_ARGV`) stays a stub.
    """
    if request.callable is not None or request.argv == LOST_CALLABLE_ARGV:
        return {
            "_unrecoverable": "callable",
            "name": request.name,
            "owner": request.owner,
            "kind": request.kind.value,
        }
    return dataclass_fields(type(request)).encode_sparse(request)


def job_wire(job: "Job") -> dict:
    """The :class:`JobSnapshot` wire of a live job: what a snapshot holds per
    job, :func:`replay` produces and :meth:`Job.restore` takes."""
    wire = _SNAPSHOT.encode_object(job)
    wire["request"] = request_wire(job.request)
    wire["attempts"] = [a.as_dict() for a in job.attempts]
    return wire


class JobJournal:
    """Write side of the distributor's durability layer.

    Owns the snapshot cadence (``snapshot_every`` records between
    snapshots) and the crash-point hooks around each append.  All
    ``record_*`` methods are called with the distributor lock held.
    """

    #: default records between snapshots.  A snapshot costs O(all jobs)
    #: to serialise; replaying 20k records on boot costs well under a
    #: second, so the cadence leans heavily toward cheap appends.
    SNAPSHOT_EVERY = 20_000

    def __init__(self, store: DurabilityStore, snapshot_every: int = SNAPSHOT_EVERY) -> None:
        self.store = store
        self.crash = store.crash
        self.snapshot_every = max(1, snapshot_every)
        self._since_snapshot = 0
        self.telemetry = None  # bound by the distributor

    def bind(self, registry, clock=None) -> None:
        """Export store counters + fsync/recovery instruments to ``registry``."""
        from repro.telemetry.instruments import DurabilityTelemetry

        self.telemetry = DurabilityTelemetry(registry)
        self.telemetry.bind_store(self.store)

    # -- append side ----------------------------------------------------------
    @property
    def snapshot_due(self) -> bool:
        return self._since_snapshot >= self.snapshot_every

    def _append(self, record: dict) -> int:
        self._since_snapshot += 1
        return self.store.append(record)

    def record_submit(self, job: "Job") -> None:
        # submit keeps the dict path: its nested request payload encodes
        # fastest as one pass through the (C-accelerated) JSON encoder.
        self.crash.reached("submit.pre-journal")
        self._append(
            {
                "kind": "submit",
                "job": job.id,
                "seq": job.seq,
                "t": job.submitted_at,
                "request": request_wire(job.request),
            }
        )
        self.crash.reached("submit.post-journal")

    def record_start(self, job: "Job") -> None:
        self._since_snapshot += 1
        self.store.append_payload(
            f'{{"kind":"start","job":{_escape(job.id)},"epoch":{job.attempt_epoch}'
            f',"t":{_num(job.started_at)},"placement":{_placement(job.placement)}'
        )
        self.crash.reached("dispatch.pre-launch")

    def record_attempt(self, job: "Job", attempt) -> None:
        self._since_snapshot += 1
        self.store.append_payload(
            f'{{"kind":"attempt","job":{_escape(job.id)}'
            f',"attempt":{{"no":{attempt.no}'
            f',"placement":{_placement(attempt.placement)}'
            f',"started_at":{_num(attempt.started_at)}'
            f',"finished_at":{_num(attempt.finished_at)}'
            f',"outcome":{_escape(attempt.outcome)}'
            f',"error":{_jstr(attempt.error)}'
            f',"exit_code":{_num(attempt.exit_code)}'
            f',"backoff_s":{_num(attempt.backoff_s)}}}'
        )
        self.crash.reached("attempt.post-journal")

    def record_requeue(self, job: "Job") -> None:
        self._since_snapshot += 1
        self.store.append_payload(
            f'{{"kind":"requeue","job":{_escape(job.id)}'
            f',"not_before":{_num(job.not_before)},"epoch":{job.attempt_epoch}'
        )

    def record_seal(self, job: "Job") -> None:
        self._since_snapshot += 1
        self.store.append_payload(
            f'{{"kind":"seal","job":{_escape(job.id)},"state":"{job.state.value}"'
            f',"t":{_num(job.finished_at)},"error":{_jstr(job.error)}'
            f',"exit_code":{_num(job.exit_code)}'
        )
        self.crash.reached("seal.post-journal")

    # -- snapshot side ---------------------------------------------------------
    def snapshot(self, jobs: dict) -> dict:
        """Snapshot every job's wire state and compact (lock held by caller)."""
        payload = {
            "jobs": [job_wire(j) for j in sorted(jobs.values(), key=lambda j: j.seq)]
        }
        out = self.store.snapshot(payload)
        self._since_snapshot = 0
        if self.telemetry is not None:
            self.telemetry.g_snapshot_lsn.set(out["lsn"])
        return out

    def stats(self) -> dict:
        """Journal counters for ``stats()["durability"]`` and the RPC layer."""
        return {
            "enabled": True,
            "dir": str(self.store.dir),
            "fsync": self.store.fsync,
            "snapshot_every": self.snapshot_every,
            "since_snapshot": self._since_snapshot,
            **self.store.stats,
        }


def replay(snapshot_state: Optional[dict], records: list[dict]) -> dict[str, dict]:
    """Fold (snapshot, journal records) into ``{job_id: JobSnapshot wire}``.

    A ``submit`` starts a job at the declared defaults; a record's keys
    named like snapshot fields (``placement``, ``not_before``, ``state``,
    ...) set them, and each kind sets what it implies.  Pure and total:
    no input is changed, and a record of an unknown kind, for an unknown
    job or without a key its kind needs is skipped, so a damaged but
    decodable journal still yields its best consistent state.
    """
    jobs = {wire["id"]: wire for wire in (snapshot_state or {}).get("jobs", ())}
    for rec in records:
        kind = rec.get("kind")
        try:
            if kind == "submit":
                jobs[rec["job"]] = _SNAPSHOT.encode_object(JobSnapshot(
                    rec["job"], rec["seq"], rec["request"], JobState.QUEUED, submitted_at=rec["t"]
                ))
                continue
            job = jobs[rec["job"]]
            if kind == "start":
                implied = {"state": "running", "started_at": rec["t"],
                           "attempt_epoch": max(job["attempt_epoch"], rec["epoch"])}
            elif kind == "attempt":
                attempt = rec["attempt"]
                implied = {"attempts": [*job["attempts"], attempt], "placement": {},
                           "attempt_epoch": max(job["attempt_epoch"], attempt["no"])}
            elif kind == "requeue":
                implied = {"state": "queued", "placement": {}, "error": None, "exit_code": None}
            elif kind == "seal":
                implied = {"finished_at": rec["t"]}
            else:
                continue
        except (KeyError, TypeError):
            continue
        jobs[job["id"]] = {**job, **{k: v for k, v in rec.items() if k in job}, **implied}
    return jobs
