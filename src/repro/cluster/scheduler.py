"""Scheduling policies: who runs next, and where.

A policy's :meth:`Scheduler.select` examines the queue and the grid and
returns the jobs to start *now*, each with a concrete
:class:`Allocation` (node → cores).  Placement prefers locality: a
parallel job is packed into the emptiest single segment that can hold it
before being allowed to straddle segments (inter-segment traffic costs
3 hops in the network model, so the preference is measurable).

Health-driven avoidance is free here: a DOWN, DRAINING or SUSPECT node
exposes zero free capacity through the incremental index and drops out
of ``up_slaves()``/``up_compute_nodes()``, so no policy ever needs to
know *why* a node is unavailable.  Retry backoff is likewise handled
before policies run: :func:`ready_for_dispatch` filters jobs whose
``not_before`` lies in the future out of the round's queue snapshot.

Free capacity is read through a :class:`CapacityView` (O(1) setup over
the grid's live index, with a per-round overlay of tentative takes).
The distributor passes one per round; a direct ``select()`` call builds
a fresh one, which is safe because a node that is not up already reads
zero free cores through the index.

Three policies, ablated in ``benchmarks/bench_cluster.py``:

* :class:`FIFOScheduler` — strict arrival order; the head blocks the queue.
* :class:`PriorityScheduler` — highest priority first; never blocks
  (skips unplaceable jobs), so small high-priority jobs can starve a
  wide job — the classic trade-off.
* :class:`BackfillScheduler` — FIFO head reservation + EASY backfill:
  while the head waits, later jobs may jump ahead only if (by runtime
  estimates) they cannot delay the head's reserved start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.cluster.grid import Grid
from repro.cluster.job import Job, JobRequest

__all__ = [
    "Allocation",
    "CapacityView",
    "RunningEstimates",
    "Scheduler",
    "FIFOScheduler",
    "PriorityScheduler",
    "BackfillScheduler",
    "ready_for_dispatch",
]


def ready_for_dispatch(queue: Sequence[Job], now: float) -> tuple[list[Job], Optional[float]]:
    """Split backoff-delayed jobs out of a queue snapshot.

    Returns ``(eligible, next_ready)``: jobs whose retry backoff has
    elapsed (``job.not_before <= now``), in their original order, plus
    the earliest ``not_before`` among the held-back jobs (``None`` when
    everything is eligible) so the distributor can arm a wake-up instead
    of polling.  A backing-off job temporarily yields its slot; once
    eligible it re-enters at its submission-order position, so FIFO
    fairness survives the delay.
    """
    eligible: Optional[list[Job]] = None  # lazily forked from the snapshot
    next_ready: Optional[float] = None
    for i, job in enumerate(queue):
        nb = job.not_before
        if nb <= now:
            if eligible is not None:
                eligible.append(job)
        else:
            if eligible is None:
                eligible = list(queue[:i])
            if next_ready is None or nb < next_ready:
                next_ready = nb
    if eligible is None:
        # common case: nothing is backing off, the snapshot is already a
        # private copy — reuse it instead of rebuilding the list per round
        return list(queue) if not isinstance(queue, list) else queue, None
    return eligible, next_ready


@dataclass(frozen=True)
class Allocation:
    """A concrete placement plan for one job."""

    job_id: str
    placement: tuple[tuple[str, int], ...]  # ((node_name, cores), ...)

    @property
    def total_cores(self) -> int:
        return sum(c for _, c in self.placement)

    def as_dict(self) -> dict[str, int]:
        return dict(self.placement)


class RunningEstimates(list):
    """``(estimated_end, cores)`` pairs kept sorted by the distributor.

    The ``presorted`` flag lets :class:`BackfillScheduler` skip its
    defensive re-sort; plain lists/tuples are still accepted and sorted
    on the fly.
    """

    presorted = True


class CapacityView:
    """Incremental free-capacity view: live index + per-round overlay.

    Construction is O(1): reads go straight to the grid's incrementally
    maintained totals (``node.cores_free`` etc. are O(1)), minus
    whatever earlier picks in the same round tentatively took.  Nothing
    here mutates the grid — the distributor commits accepted plans with
    real ``allocate()`` calls after ``select()`` returns.
    """

    __slots__ = ("grid", "_cores_taken", "_mem_taken", "_seg_taken", "_taken_total", "probes")

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self._cores_taken: dict[str, int] = {}
        self._mem_taken: dict[str, int] = {}
        self._seg_taken: dict[str, int] = {}
        self._taken_total = 0
        self.probes = 0

    def fits(self, node, cores: int, memory_mb: int, need_gpu: bool) -> bool:
        if need_gpu and not node.spec.has_gpu:
            return False
        free_c, free_m = self.free(node)
        return free_c >= cores and free_m >= memory_mb

    def free(self, node) -> tuple[int, int]:
        """(free cores, free memory) of ``node`` under this view."""
        return (
            node.cores_free - self._cores_taken.get(node.name, 0),
            node.memory_free_mb - self._mem_taken.get(node.name, 0),
        )

    def seg_free_cores(self, seg) -> int:
        """Total free cores in segment ``seg`` under this view."""
        return seg.cores_free - self._seg_taken.get(seg.name, 0)

    def take(self, node_name: str, cores: int, memory_mb: int) -> None:
        node = self.grid.node(node_name)
        self._cores_taken[node_name] = self._cores_taken.get(node_name, 0) + cores
        self._mem_taken[node_name] = self._mem_taken.get(node_name, 0) + memory_mb
        self._seg_taken[node.segment] = self._seg_taken.get(node.segment, 0) + cores
        self._taken_total += cores

    @property
    def total_free_cores(self) -> int:
        return self.grid.cores_free - self._taken_total


def place_request(grid: Grid, request: JobRequest, shadow) -> Optional[list[tuple[str, int]]]:
    """Find nodes for every task of ``request`` against ``shadow``.

    Returns ``[(node_name, cores), ...]`` — one entry per task — or
    ``None`` when the job cannot start now.  Does *not* mutate the
    shadow; the caller commits with :func:`commit_placement` once it
    decides to take the plan.

    Candidate sets are quick-rejected on aggregate free cores (a pack
    over nodes whose free cores sum below the job's need can never
    succeed), so a failed placement costs O(segments), not O(nodes).
    """
    cores = request.cores_per_task
    mem = request.memory_mb_per_task
    tasks = request.n_tasks
    need = request.total_cores

    def pack(nodes) -> Optional[list[tuple[str, int]]]:
        shadow.probes += 1
        plan: list[tuple[str, int]] = []
        avail: dict[str, int] = {}
        avail_mem: dict[str, int] = {}
        for n in nodes:
            avail[n.name], avail_mem[n.name] = shadow.free(n)
        for _ in range(tasks):
            chosen = None
            for n in nodes:
                if request.need_gpu and not n.spec.has_gpu:
                    continue
                if (
                    request.node_type is not None
                    and n.spec.node_type != request.node_type
                ):
                    continue
                if avail[n.name] >= cores and avail_mem[n.name] >= mem:
                    chosen = n
                    break
            if chosen is None:
                return None
            avail[chosen.name] -= cores
            avail_mem[chosen.name] -= mem
            plan.append((chosen.name, cores))
        return plan

    # 1. Try to pack the whole job inside one segment (most-free first).
    for seg in grid.segments_by_free():
        if request.need_gpu and not seg.has_gpu:
            continue
        if request.node_type is not None and not seg.has_type(request.node_type):
            continue
        if shadow.seg_free_cores(seg) < need:
            continue
        plan = pack(seg.up_slaves())
        if plan is not None:
            return plan
    # 2. Fall back to the whole grid.
    if shadow.total_free_cores < need:
        return None
    return pack(grid.up_compute_nodes())


def commit_placement(shadow, plan: list[tuple[str, int]], request: JobRequest) -> None:
    """Deduct a accepted plan from the shadow."""
    for node_name, cores in plan:
        shadow.take(node_name, cores, request.memory_mb_per_task)


def _merge_plan(plan: list[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    """Collapse per-task entries into per-node totals."""
    merged: dict[str, int] = {}
    for node_name, cores in plan:
        merged[node_name] = merged.get(node_name, 0) + cores
    return tuple(sorted(merged.items()))


class Scheduler:
    """Base policy. Subclasses implement :meth:`select`."""

    name = "base"

    def select(
        self,
        queue: Sequence[Job],
        grid: Grid,
        now: float = 0.0,
        running: Iterable[tuple[float, int]] = (),
        view=None,
    ) -> list[tuple[Job, Allocation]]:
        """Jobs to start now.

        Parameters
        ----------
        queue:
            Queued jobs in submission order.
        grid:
            The machine (read-only here; the distributor commits).
        now:
            Current (virtual or wall) time — used by backfill.
        running:
            ``(estimated_end_time, total_cores)`` of running jobs — used
            by backfill's reservation computation.  A
            :class:`RunningEstimates` instance is trusted to be
            end-time-sorted already.
        view:
            Optional capacity view to schedule against (the distributor
            passes its per-round :class:`CapacityView`); ``None`` builds
            a fresh one.
        """
        raise NotImplementedError


class FIFOScheduler(Scheduler):
    """Strict arrival order; an unplaceable head blocks everyone behind it."""

    name = "fifo"

    def select(self, queue, grid, now=0.0, running=(), view=None):
        shadow = view if view is not None else CapacityView(grid)
        picks: list[tuple[Job, Allocation]] = []
        for job in queue:
            plan = place_request(grid, job.request, shadow)
            if plan is None:
                break  # head-of-line blocking is the point of FIFO
            commit_placement(shadow, plan, job.request)
            picks.append((job, Allocation(job.id, _merge_plan(plan))))
        return picks


class PriorityScheduler(Scheduler):
    """Highest priority first (ties: submission order); skips blocked jobs.

    Pure priority scheduling starves low-priority work under a steady
    high-priority stream — the classic OS-course pitfall.  ``aging_rate``
    applies the textbook fix: a job's *effective* priority grows by
    ``aging_rate`` per unit of queue wait, so everything eventually
    rises to the top.  ``aging_rate=0`` (default) is the pure policy.
    """

    name = "priority"

    def __init__(self, aging_rate: float = 0.0) -> None:
        if aging_rate < 0:
            raise ValueError(f"aging_rate must be >= 0, got {aging_rate}")
        self.aging_rate = aging_rate

    def effective_priority(self, job: Job, now: float) -> float:
        """Static priority plus accrued age."""
        # NB: `submitted_at or now` would treat a t=0.0 submission as
        # "not submitted" — compare against None explicitly.
        submitted = job.submitted_at if job.submitted_at is not None else now
        waited = max(0.0, now - submitted)
        return job.request.priority + self.aging_rate * waited

    def select(self, queue, grid, now=0.0, running=(), view=None):
        shadow = view if view is not None else CapacityView(grid)
        picks: list[tuple[Job, Allocation]] = []
        ordered = sorted(
            enumerate(queue),
            key=lambda p: (-self.effective_priority(p[1], now), p[0]),
        )
        for _, job in ordered:
            if shadow.total_free_cores <= 0:
                break  # nothing can place once the view is exhausted
            plan = place_request(grid, job.request, shadow)
            if plan is not None:
                commit_placement(shadow, plan, job.request)
                picks.append((job, Allocation(job.id, _merge_plan(plan))))
        return picks


class BackfillScheduler(Scheduler):
    """EASY backfill: FIFO with a reservation for the blocked head.

    When the head job cannot start, we compute its *reserved start time*
    (the earliest moment enough cores will be free, by the running jobs'
    estimated end times) and let later jobs start only if their own
    estimated runtime finishes before that reservation, or they fit in
    cores the head will not need.  Jobs without a runtime estimate are
    never backfilled (conservative).
    """

    name = "backfill"

    #: default estimate (seconds) for jobs that carry none — None disables
    #: backfilling such jobs entirely.
    def __init__(self) -> None:
        pass

    def select(self, queue, grid, now=0.0, running=(), view=None):
        shadow = view if view is not None else CapacityView(grid)
        picks: list[tuple[Job, Allocation]] = []
        queue = list(queue)

        # Start as many head-of-queue jobs as fit (pure FIFO part).
        while queue:
            job = queue[0]
            plan = place_request(grid, job.request, shadow)
            if plan is None:
                break
            commit_placement(shadow, plan, job.request)
            picks.append((job, Allocation(job.id, _merge_plan(plan))))
            queue.pop(0)

        if not queue:
            return picks

        head = queue[0]
        head_need = head.request.total_cores
        reservation = self._reserved_start(head_need, shadow.total_free_cores, now, running)
        # Cores free at the reservation instant (current free + everything
        # that drains by then).  A candidate that still runs at that point
        # is harmless iff it fits in the slack beyond the head's need.
        if reservation is not None:
            drained = sum(c for end, c in running if end <= reservation)
            free_at_reservation = shadow.total_free_cores + drained
        else:
            free_at_reservation = 0

        for job in queue[1:]:
            if shadow.total_free_cores <= 0:
                break  # no candidate can place against an exhausted view
            est = getattr(job.request, "est_runtime_s", None)
            if est is None:
                continue
            harmless = (
                reservation is not None
                and job.request.total_cores <= free_at_reservation - head_need
            )
            finishes_in_time = reservation is not None and now + est <= reservation
            if not (harmless or finishes_in_time):
                continue
            plan = place_request(grid, job.request, shadow)
            if plan is None:
                continue
            commit_placement(shadow, plan, job.request)
            picks.append((job, Allocation(job.id, _merge_plan(plan))))
        return picks

    @staticmethod
    def _reserved_start(
        need: int, free_now: int, now: float, running: Iterable[tuple[float, int]]
    ) -> Optional[float]:
        """Earliest time cumulative free cores reach ``need``.

        ``running`` sorted ascending by end time is consumed as-is when
        it advertises ``presorted`` (the distributor's
        :class:`RunningEstimates` does); anything else is sorted here.
        """
        free = free_now
        if free >= need:
            return now
        ends = running if getattr(running, "presorted", False) else sorted(running)
        for end, cores in ends:
            free += cores
            if free >= need:
                return max(end, now)
        return None  # not satisfiable even when everything drains
