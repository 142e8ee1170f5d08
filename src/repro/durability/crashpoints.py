"""Deterministic crash-point fault injection for the control plane.

PR 3's kill/revive battery exercises *data-plane* faults (nodes dying
under running attempts).  This module extends the idea to the control
plane itself: the distributor and the durability store are instrumented
with named :data:`CRASH_POINTS`, and a test arms one through
:class:`CrashPoints` to make the process "die" at exactly that
instruction — a :class:`SimulatedCrash` is raised and the instance is
abandoned, unflushed Python buffers and all.  Recovery then reboots
from whatever actually reached the journal directory, which is exactly
the state a ``kill -9`` would have left behind.

``SimulatedCrash`` derives from :class:`BaseException` on purpose: the
dispatch pipeline contains ``except Exception`` guards (e.g. around
placement races) that must never swallow a simulated death.
"""

from __future__ import annotations

__all__ = ["CRASH_POINTS", "CrashPoints", "SimulatedCrash"]

#: Every instrumented site, in pipeline order.  Tests iterate this tuple
#: so a newly-instrumented point is automatically battery-covered.
CRASH_POINTS = (
    # submit(): before the submit record reaches the journal — the caller
    # never got an ack, so the job may legitimately vanish.
    "submit.pre-journal",
    # submit(): the journal has the record but the caller never saw the
    # returned Job — recovery must resurrect it (at-least-once).
    "submit.post-journal",
    # _dispatch_round(): the attempt-start record is journaled but the
    # backend was never launched — the attempt is in-flight on no node.
    "dispatch.pre-launch",
    # _finish_attempt(): the attempt outcome is journaled but neither the
    # requeue nor the seal that follows it was — recovery re-decides.
    "attempt.post-journal",
    # _seal(): the terminal record is journaled but waiters were never
    # notified — the "between journal-write and callback" window.
    "seal.post-journal",
    # DurabilityStore.snapshot(): the snapshot temp file is written but
    # not yet renamed into place — the old snapshot must still win.
    "snapshot.mid-write",
    # DurabilityStore.snapshot(): the new snapshot is live but stale
    # journal segments were not all deleted — replay must deduplicate.
    "compaction.mid",
)


class SimulatedCrash(BaseException):
    """The armed crash point fired; the process is considered dead."""

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


class CrashPoints:
    """Registry of armed crash points, shared by journal and store.

    ``arm(point, at=n)`` makes the ``n``-th subsequent ``reached(point)``
    call raise :class:`SimulatedCrash`; unarmed points cost one dict
    lookup.  Deterministic by construction: the same workload with the
    same arming dies at the same instruction every run.
    """

    def __init__(self) -> None:
        self._armed: dict[str, int] = {}
        #: points that actually fired, in order (test assertion aid).
        self.fired: list[str] = []

    def arm(self, point: str, at: int = 1) -> None:
        """Arm ``point`` to fire on its ``at``-th hit (1-based)."""
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {point!r}; pick from {CRASH_POINTS}")
        if at < 1:
            raise ValueError(f"at must be >= 1, got {at}")
        self._armed[point] = at

    def disarm(self, point: str) -> None:
        self._armed.pop(point, None)

    @property
    def armed(self) -> tuple[str, ...]:
        return tuple(sorted(self._armed))

    def reached(self, point: str) -> None:
        """Instrumented sites call this; raises when the point is armed."""
        n = self._armed.get(point)
        if n is None:
            return
        if n > 1:
            self._armed[point] = n - 1
            return
        del self._armed[point]
        self.fired.append(point)
        raise SimulatedCrash(point)
