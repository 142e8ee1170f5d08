"""The incremental dispatch engine: index equivalence, fault rollback,
coalesced dispatch, event-driven wait_all, and the observability counters."""

import threading
import time

import numpy as np
import pytest

from repro._errors import ResourceError
from repro.cluster import (
    BackfillScheduler,
    CallableBackend,
    CapacityView,
    ClusterSpec,
    FaultInjector,
    FIFOScheduler,
    Grid,
    Job,
    JobDistributor,
    JobKind,
    JobRequest,
    JobState,
    PriorityScheduler,
    RunningEstimates,
    Scheduler,
    SimulatedBackend,
)
from repro.cluster.monitor import ClusterMonitor
from repro.desim import Simulator

N_JOBS = 400


def make_workload(n=N_JOBS, seed=42):
    """Same mixed stream shape as the P2 benchmark: 70% sequential."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        parallel = rng.random() < 0.3
        n_tasks = int(rng.integers(2, 17)) if parallel else 1
        duration = float(rng.lognormal(1.0, 0.8))
        out.append(
            JobRequest(
                name=f"j{i}",
                kind=JobKind.PARALLEL if parallel else JobKind.SEQUENTIAL,
                n_tasks=n_tasks,
                sim_duration=duration,
                est_runtime_s=duration * float(rng.uniform(1.0, 1.5)),
                priority=int(rng.integers(0, 3)),
            )
        )
    return out


class _Shadow:
    """Free-capacity view rebuilt from scratch: the equivalence oracle.

    Walks every up node at construction — O(nodes) per scheduling round —
    and snapshots its free cores and memory.  This was the schedulers'
    capacity view before the incremental :class:`CapacityView`; the tests
    below replay every round against both and demand identical picks.
    """

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.cores: dict[str, int] = {}
        self.memory: dict[str, int] = {}
        self._seg_free: dict[str, int] = {s.name: 0 for s in grid.segments}
        self._total = 0
        self.probes = 0
        for n in grid.up_compute_nodes():
            self.cores[n.name] = n.cores_free
            self.memory[n.name] = n.memory_free_mb
            self._seg_free[n.segment] += n.cores_free
            self._total += n.cores_free

    def fits(self, node, cores: int, memory_mb: int, need_gpu: bool) -> bool:
        if need_gpu and not node.spec.has_gpu:
            return False
        return (
            self.cores.get(node.name, 0) >= cores
            and self.memory.get(node.name, 0) >= memory_mb
        )

    def free(self, node) -> tuple[int, int]:
        """(free cores, free memory) of ``node`` under this view."""
        return self.cores.get(node.name, 0), self.memory.get(node.name, 0)

    def seg_free_cores(self, seg) -> int:
        """Total free cores in segment ``seg`` under this view."""
        return self._seg_free.get(seg.name, 0)

    def take(self, node_name: str, cores: int, memory_mb: int) -> None:
        self.cores[node_name] -= cores
        self.memory[node_name] -= memory_mb
        self._seg_free[self.grid.node(node_name).segment] -= cores
        self._total -= cores

    @property
    def total_free_cores(self) -> int:
        return self._total


def assert_capacity_consistent(grid):
    """Incremental indexes must equal a from-scratch recount of the nodes."""
    for seg in grid.segments:
        assert seg.cores_free == sum(n.cores_free for n in seg.slaves)
        assert seg.memory_free_mb == sum(n.memory_free_mb for n in seg.slaves)
    assert grid.cores_free == sum(n.cores_free for n in grid.compute_nodes())
    # The two capacity views must agree node-for-node.
    shadow, view = _Shadow(grid), CapacityView(grid)
    for n in grid.up_compute_nodes():
        assert shadow.free(n) == view.free(n)
    for seg in grid.segments:
        assert shadow.seg_free_cores(seg) == view.seg_free_cores(seg)
    assert shadow.total_free_cores == view.total_free_cores


class DiffingScheduler(Scheduler):
    """Runs every round twice — old-style full `_Shadow` rebuild vs the
    incremental `CapacityView` — and asserts identical pick sequences."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.rounds_diffed = 0

    def select(self, queue, grid, now=0.0, running=(), view=None):
        # Reference: fresh rebuild, plain (unsorted-contract) running list.
        fresh = self.inner.select(
            list(queue), grid, now=now, running=list(running), view=_Shadow(grid)
        )
        # Hot path: incremental view + presorted running estimates.
        inc = self.inner.select(
            queue, grid, now=now, running=running,
            view=view if view is not None else CapacityView(grid),
        )
        assert [(j.id, a.placement) for j, a in fresh] == [
            (j.id, a.placement) for j, a in inc
        ], f"pick divergence under {self.name} at t={now}"
        self.rounds_diffed += 1
        return inc


class TestPickEquivalence:
    @pytest.mark.parametrize(
        "scheduler_cls", [FIFOScheduler, PriorityScheduler, BackfillScheduler]
    )
    def test_incremental_index_matches_full_rebuild(self, scheduler_cls):
        sim = Simulator()
        grid = Grid(ClusterSpec.uhd_default())
        diffing = DiffingScheduler(scheduler_cls())
        dist = JobDistributor(grid, SimulatedBackend(sim), diffing, now_fn=lambda: sim.now)
        for request in make_workload():
            dist.submit(request)
        sim.run()
        assert diffing.rounds_diffed > N_JOBS  # every round was cross-checked
        assert dist.monitor.summary()["by_state"] == {"completed": N_JOBS}
        assert_capacity_consistent(grid)
        assert grid.cores_free == grid.cores_total

    @pytest.mark.parametrize(
        "scheduler_cls", [FIFOScheduler, PriorityScheduler, BackfillScheduler]
    )
    def test_standalone_select_skips_a_killed_node(self, scheduler_cls):
        """``select()`` without a view builds a CapacityView, and a dead
        node reads zero free cores through it, as in the full rebuild."""
        grid = Grid(ClusterSpec.small(segments=2, slaves=2, cores=2))
        victim = grid.node("seg-0-n00")
        victim.mark_down()
        grid.node("seg-1-n01").allocate("held", 1)
        queue = [
            Job(JobRequest(name=f"q{i}", kind=JobKind.PARALLEL, n_tasks=n,
                           sim_duration=1.0, est_runtime_s=1.0))
            for i, n in enumerate((2, 1, 3, 1))
        ]
        standalone = scheduler_cls().select(queue, grid)
        oracle = scheduler_cls().select(queue, grid, view=_Shadow(grid))
        assert [(j.id, a.placement) for j, a in standalone] == [
            (j.id, a.placement) for j, a in oracle
        ]
        assert standalone  # the live nodes still take work
        placed = {name for _, a in standalone for name, _ in a.placement}
        assert victim.name not in placed


class TestReserveRollback:
    def test_node_failure_mid_round_keeps_indexes_consistent(self, sim):
        grid = Grid(ClusterSpec.small(segments=1, slaves=2, cores=2))
        dist = JobDistributor(grid, SimulatedBackend(sim), now_fn=lambda: sim.now)
        # Second node's allocate blows up as if it died between select and
        # reserve: the first node's allocation must be rolled back.
        victim = grid.node("seg-0-n01")
        real_allocate = victim.allocate

        def dying_allocate(*a, **kw):
            raise ResourceError("node died mid-round")

        victim.allocate = dying_allocate
        job = dist.submit(
            JobRequest(name="wide", kind=JobKind.PARALLEL, n_tasks=2,
                       cores_per_task=2, sim_duration=1.0)
        )
        # Reserve failed: job was re-queued, nothing is held anywhere.
        assert job.state is JobState.QUEUED
        assert grid.cores_free == grid.cores_total
        assert_capacity_consistent(grid)
        # Node recovers: the queued job dispatches and completes normally.
        victim.allocate = real_allocate
        dist.dispatch()
        sim.run()
        assert job.state is JobState.COMPLETED
        assert_capacity_consistent(grid)

    def test_fault_injection_mid_workload_keeps_indexes_consistent(self):
        sim = Simulator()
        grid = Grid(ClusterSpec.small(segments=2, slaves=4, cores=2))
        dist = JobDistributor(grid, SimulatedBackend(sim), now_fn=lambda: sim.now)
        injector = FaultInjector(dist, seed=3)
        for request in make_workload(n=60, seed=9):
            if request.n_tasks <= 8:  # fits the small grid
                dist.submit(request)

        def chaos(sim):
            yield sim.timeout(2.0)
            injector.kill_random_node()
            assert_capacity_consistent(dist.grid)
            yield sim.timeout(2.0)
            injector.revive_all()
            assert_capacity_consistent(dist.grid)

        sim.process(chaos(sim))
        sim.run()
        assert all(j.terminal for j in dist.jobs.values())
        assert_capacity_consistent(grid)
        assert grid.cores_free == grid.cores_total


class TestCoalescedDispatch:
    def test_submit_array_dispatches_once(self, sim, small_grid):
        dist = JobDistributor(small_grid, SimulatedBackend(sim), now_fn=lambda: sim.now)
        before = dist.stats()["dispatch"]
        jobs = dist.submit_array(JobRequest(name="sweep", sim_duration=1.0), count=8)
        after = dist.stats()["dispatch"]
        assert after["requests"] - before["requests"] == 1
        assert after["rounds"] - before["rounds"] == 1
        sim.run()
        assert all(j.state is JobState.COMPLETED for j in jobs)

    def test_submit_array_docstring_documents_batching(self):
        assert "batch" in JobDistributor.submit_array.__doc__.lower()

    def test_rounds_amortised_o1_per_job(self):
        sim = Simulator()
        grid = Grid(ClusterSpec.uhd_default())
        dist = JobDistributor(grid, SimulatedBackend(sim), BackfillScheduler(),
                              now_fn=lambda: sim.now)
        n = 200
        for request in make_workload(n=n, seed=5):
            dist.submit(request)
        sim.run()
        d = dist.stats()["dispatch"]
        # ~1 round per submit + ~1 per completion; coalescing keeps it O(1).
        assert d["rounds"] <= 4 * n
        assert d["jobs_started"] == n

    def test_dispatch_counters_exposed(self, sim, small_grid):
        dist = JobDistributor(small_grid, SimulatedBackend(sim), now_fn=lambda: sim.now)
        dist.submit(JobRequest(name="j", sim_duration=1.0))
        sim.run()
        d = dist.stats()["dispatch"]
        for key in ("requests", "coalesced", "rounds", "jobs_examined",
                    "placements_tried", "jobs_started"):
            assert key in d
        assert d["rounds"] >= 1
        assert d["jobs_started"] == 1
        assert d["placements_tried"] >= 1


class TestRunningEstimates:
    def test_distributor_keeps_estimates_sorted(self, sim):
        grid = Grid(ClusterSpec.small(segments=1, slaves=4, cores=2))
        dist = JobDistributor(grid, SimulatedBackend(sim), now_fn=lambda: sim.now)
        for est in (9.0, 2.0, 7.0, 4.0):
            dist.submit(JobRequest(name=f"e{est}", sim_duration=est, est_runtime_s=est))
        running = dist._running_estimates()
        assert isinstance(running, RunningEstimates)
        assert running.presorted
        assert list(running) == sorted(running)
        assert len(running) == 4
        sim.run()
        assert dist._running_estimates() == []

    def test_backfill_accepts_presorted_without_resorting(self):
        unsorted = [(100.0, 4), (50.0, 2), (75.0, 2)]
        presorted = RunningEstimates(sorted(unsorted))
        a = BackfillScheduler._reserved_start(6, 2, 0.0, unsorted)
        b = BackfillScheduler._reserved_start(6, 2, 0.0, presorted)
        assert a == b == 75.0

    def test_estimate_less_jobs_invisible_to_backfill(self):
        grid = Grid(ClusterSpec.small(segments=1, slaves=1, cores=1))
        dist = JobDistributor(grid, CallableBackend())
        release = threading.Event()
        try:
            # Neither est_runtime_s nor sim_duration → no end-time entry.
            job = dist.submit(JobRequest(name="n", callable=lambda j: release.wait(10)))
            assert job.state is JobState.RUNNING
            assert len(dist._run_ends) == 0
        finally:
            release.set()
            assert dist.wait_all(10)


class TestWaitAllWakeup:
    def test_wait_all_is_event_driven_not_polled(self, small_grid, monkeypatch):
        dist = JobDistributor(small_grid, CallableBackend())
        release = threading.Event()
        job = dist.submit(JobRequest(name="gate", callable=lambda j: release.wait(10)))

        def no_sleep(_secs):
            raise AssertionError("wait_all must not poll with time.sleep")

        monkeypatch.setattr(time, "sleep", no_sleep)
        threading.Timer(0.05, release.set).start()
        t0 = time.monotonic()
        assert dist.wait_all(10)
        woke_after = time.monotonic() - t0
        assert job.state is JobState.COMPLETED
        assert woke_after < 5.0  # woke on the completion signal, not the timeout

    def test_wait_all_times_out_when_busy(self, small_grid):
        dist = JobDistributor(small_grid, CallableBackend())
        release = threading.Event()
        try:
            dist.submit(JobRequest(name="stuck", callable=lambda j: release.wait(30)))
            assert not dist.wait_all(0.2)
        finally:
            release.set()
            assert dist.wait_all(10)


class TestQueueOrdering:
    def test_requeued_job_regains_submission_position(self):
        from repro.cluster import JobQueue

        q = JobQueue()
        jobs = []
        for i in range(3):
            j = Job(JobRequest(name=f"q{i}", sim_duration=1.0))
            j.transition(JobState.QUEUED)
            q.push(j)
            jobs.append(j)
        middle = jobs[1]
        assert q.remove(middle)
        q.push(middle)  # e.g. after a reserve rollback
        assert [j.request.name for j in q.snapshot()] == ["q0", "q1", "q2"]


class TestMonitorRingBuffer:
    def test_default_cap_is_bounded(self):
        grid = Grid(ClusterSpec.small())
        monitor = ClusterMonitor()
        assert monitor.max_samples == 4096
        for t in range(5000):
            monitor.sample(grid, t=float(t))
        samples = monitor.samples
        assert len(samples) == 4096
        assert samples[0].t == float(5000 - 4096)  # oldest evicted
        assert samples[-1].t == 4999.0

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            ClusterMonitor(max_samples=0)
