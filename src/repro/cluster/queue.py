"""The pending-job queue."""

from __future__ import annotations

import bisect
import threading
from typing import Iterator, Optional

from repro._errors import SchedulingError
from repro.cluster.job import Job, JobState

__all__ = ["JobQueue"]


class JobQueue:
    """Ordered collection of queued jobs.

    Keeps submission order; scheduling *policies* decide which entry to
    pull (FIFO takes the head, priority scans, backfill peeks deeper), so
    the queue exposes ordered iteration and positional removal rather
    than a single ``pop``.

    Order is defined by ``job.seq`` (creation order): the common case is
    an O(1) append, but a job pushed out of order — e.g. re-queued after
    a placement raced with a node failure, or released from a dependency
    hold — is inserted back at its original submission position instead
    of the tail, so FIFO semantics survive requeues.
    """

    def __init__(self) -> None:
        self._jobs: list[Job] = []
        self._lock = threading.Lock()

    def push(self, job: Job) -> None:
        """Add a job (must be QUEUED) at its submission-order position."""
        if job.state is not JobState.QUEUED:
            raise SchedulingError(
                f"only QUEUED jobs enter the queue; {job.id} is {job.state.value}"
            )
        with self._lock:
            if not self._jobs or self._jobs[-1].seq <= job.seq:
                self._jobs.append(job)
            else:
                bisect.insort(self._jobs, job, key=lambda j: j.seq)

    def remove(self, job: Job) -> bool:
        """Remove a specific job (e.g. on cancel). Returns success."""
        with self._lock:
            try:
                self._jobs.remove(job)
                return True
            except ValueError:
                return False

    def snapshot(self) -> list[Job]:
        """Copy of the current queue in submission order."""
        with self._lock:
            return list(self._jobs)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)

    def __iter__(self) -> Iterator[Job]:
        return iter(self.snapshot())

    def head(self) -> Optional[Job]:
        """Oldest queued job, or None."""
        with self._lock:
            return self._jobs[0] if self._jobs else None
