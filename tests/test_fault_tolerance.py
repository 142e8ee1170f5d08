"""Reliability battery for the fault-tolerant job lifecycle.

Covers the distributor's fault-tolerance layer end to end: retry/backoff
determinism under a fixed seed, run-time and wall-clock timeouts firing
exactly once, rerouting of jobs orphaned by node death, health-driven
SUSPECT/probation behaviour, a randomized kill/revive stress loop that
cross-checks the incremental capacity index against a full rescan, and a
concurrency smoke test that kills/revives nodes from another thread
while ``wait_all`` blocks.
"""

from __future__ import annotations

import signal
import threading
import time

import numpy as np
import pytest

from repro._errors import JobError, ResourceError
from repro.cluster import (
    CallableBackend,
    ClusterSpec,
    FaultInjector,
    Grid,
    HealthMonitor,
    HealthPolicy,
    JobDistributor,
    JobRequest,
    JobState,
    NodeState,
    RetryPolicy,
    SimulatedBackend,
    SubprocessBackend,
)
from repro.cluster.backends import ExecutionBackend, ExecutionHandle
from repro.desim import Simulator
from repro.durability import DurabilityStore, JobJournal, replay

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01, jitter=0.0)


def des_distributor(
    segments: int = 1, slaves: int = 3, cores: int = 2, **kwargs
) -> tuple[Simulator, Grid, JobDistributor]:
    sim = Simulator()
    grid = Grid(ClusterSpec.small(segments=segments, slaves=slaves, cores=cores))
    dist = JobDistributor(
        grid, SimulatedBackend(sim), now_fn=lambda: sim.now, **kwargs
    )
    return sim, grid, dist


def flaky_callable(fail_first: int):
    """A callable that raises on its first ``fail_first`` invocations."""
    calls = {"n": 0}

    def fn(job):
        calls["n"] += 1
        if calls["n"] <= fail_first:
            raise RuntimeError(f"transient #{calls['n']}")
        return "ok"

    return fn


class TestRetryPolicyUnit:
    def test_backoff_is_exponential_and_capped(self):
        p = RetryPolicy(backoff_base_s=1.0, backoff_factor=2.0, backoff_max_s=5.0, jitter=0.0)
        assert [p.delay_for(n) for n in (1, 2, 3, 4, 5)] == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_is_bounded_and_seed_deterministic(self):
        p = RetryPolicy(backoff_base_s=1.0, jitter=0.25)
        a = [p.delay_for(1, np.random.default_rng(7)) for _ in range(5)]
        b = [p.delay_for(1, np.random.default_rng(7)) for _ in range(5)]
        assert a == b  # same seed, same schedule
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = p.delay_for(1, rng)
            assert 0.75 <= d <= 1.25

    def test_budget_and_classes(self):
        p = RetryPolicy(max_attempts=2, retry_on=("failed",))
        assert p.should_retry("failed", 1)
        assert not p.should_retry("failed", 2)  # budget spent
        assert not p.should_retry("timeout", 1)  # class not selected
        assert not p.should_retry("node_lost", 1)

    def test_validation(self):
        with pytest.raises(JobError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(JobError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(JobError):
            RetryPolicy(retry_on=("no-such-class",))
        with pytest.raises(JobError):
            JobRequest(name="x", sim_duration=1.0, wallclock_timeout_s=0)

    def test_retry_on_accepts_any_iterable(self):
        assert RetryPolicy(retry_on=["failed", "timeout"]).retry_on == {"failed", "timeout"}


class TestRetryLifecycle:
    def test_flaky_job_retries_to_success_with_lineage(self, small_grid):
        dist = JobDistributor(small_grid, CallableBackend(), retry=FAST_RETRY)
        job = dist.submit(JobRequest(name="flaky", callable=flaky_callable(2)))
        assert dist.wait_all(20), dist.stats()
        assert job.state is JobState.COMPLETED
        assert job.attempt_epoch == 3
        assert [a.outcome for a in job.attempts] == ["failed", "failed", "completed"]
        assert [a.no for a in job.attempts] == [1, 2, 3]
        assert dist.stats()["faults"]["retries"] == 2
        # every non-final attempt recorded the backoff it paid
        assert all(a.backoff_s is not None for a in job.attempts[:-1])

    def test_budget_exhaustion_seals_failed(self, small_grid):
        dist = JobDistributor(small_grid, CallableBackend(), retry=FAST_RETRY)
        job = dist.submit(JobRequest(name="doomed", callable=flaky_callable(99)))
        assert dist.wait_all(20)
        assert job.state is JobState.FAILED
        assert job.attempt_epoch == FAST_RETRY.max_attempts
        assert len(job.attempts) == FAST_RETRY.max_attempts
        assert {a.outcome for a in job.attempts} == {"failed"}

    def test_no_retries_without_policy(self, small_grid):
        dist = JobDistributor(small_grid, CallableBackend())
        job = dist.submit(JobRequest(name="once", callable=flaky_callable(1)))
        assert dist.wait_all(20)
        assert job.state is JobState.FAILED
        assert job.attempt_epoch == 1
        assert dist.stats()["faults"]["retries"] == 0

    def test_per_request_policy_overrides_distributor_default(self, small_grid):
        dist = JobDistributor(small_grid, CallableBackend())  # no default
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.01, jitter=0.0)
        job = dist.submit(JobRequest(name="own", callable=flaky_callable(1), retry=policy))
        assert dist.wait_all(20)
        assert job.state is JobState.COMPLETED
        assert job.attempt_epoch == 2

    def test_backoff_schedule_reproducible_under_fixed_seed(self):
        def run_once() -> list[float]:
            grid = Grid(ClusterSpec.small(segments=2, slaves=4, cores=2))
            dist = JobDistributor(
                grid,
                CallableBackend(),
                retry=RetryPolicy(max_attempts=4, backoff_base_s=0.01, jitter=0.5),
                seed=1234,
            )
            job = dist.submit(JobRequest(name="seeded", callable=flaky_callable(3)))
            assert dist.wait_all(20)
            assert job.state is JobState.COMPLETED
            return [a.backoff_s for a in job.attempts[:-1]]

        first, second = run_once(), run_once()
        assert first == second  # byte-identical schedule under the same seed
        assert len(first) == 3
        for n, delay in enumerate(first, start=1):
            base = 0.01 * 2.0 ** (n - 1)
            assert base * 0.5 <= delay <= base * 1.5  # jitter stays bounded


class TestTimeouts:
    def test_run_timeout_fires_exactly_once(self):
        sim, grid, dist = des_distributor()
        job = dist.submit(JobRequest(name="hang", sim_duration=100.0, timeout_s=5.0))
        sim.run(until=50.0)
        assert job.state is JobState.TIMEOUT
        assert job.error == "timeout"
        assert dist.stats()["faults"]["timeouts"] == 1
        assert len(job.attempts) == 1 and job.attempts[0].outcome == "timeout"
        # the attempt's resources came back
        assert grid.cores_free == grid.cores_total

    def test_retryable_timeout_counts_each_attempt_once(self):
        sim, grid, dist = des_distributor(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=1.0, jitter=0.0)
        )
        job = dist.submit(JobRequest(name="hang", sim_duration=100.0, timeout_s=3.0))
        sim.run(until=60.0)
        assert job.state is JobState.TIMEOUT
        assert [a.outcome for a in job.attempts] == ["timeout", "timeout"]
        assert dist.stats()["faults"]["timeouts"] == 2  # one per attempt, never double
        assert dist.stats()["faults"]["retries"] == 1
        assert grid.cores_free == grid.cores_total

    def test_wallclock_timeout_fires_in_queue(self):
        sim, grid, dist = des_distributor(slaves=1)
        hog = dist.submit(JobRequest(name="hog", sim_duration=100.0, cores_per_task=2))
        waiter = dist.submit(
            JobRequest(name="waiter", sim_duration=1.0, wallclock_timeout_s=10.0, cores_per_task=2)
        )
        assert waiter.state is JobState.QUEUED
        sim.run(until=50.0)
        assert waiter.state is JobState.TIMEOUT
        assert waiter.error == "wallclock timeout"
        assert waiter.started_at is None  # never ran
        assert dist.stats()["faults"]["wall_timeouts"] == 1
        assert hog.state is JobState.RUNNING  # unaffected

    def test_wallclock_timeout_kills_running_job(self):
        sim, grid, dist = des_distributor()
        job = dist.submit(
            JobRequest(name="long", sim_duration=100.0, wallclock_timeout_s=20.0)
        )
        sim.run(until=60.0)
        assert job.state is JobState.TIMEOUT
        assert job.error == "wallclock timeout"
        assert dist.stats()["faults"]["wall_timeouts"] == 1
        assert grid.cores_free == grid.cores_total

    def test_wallclock_budget_cuts_retry_budget(self):
        # Each attempt times out after 4s; the wall budget of 6s allows the
        # first retry decision but forbids the one after the second attempt.
        sim, grid, dist = des_distributor(
            retry=RetryPolicy(max_attempts=10, backoff_base_s=0.5, jitter=0.0)
        )
        job = dist.submit(
            JobRequest(name="w", sim_duration=100.0, timeout_s=4.0, wallclock_timeout_s=6.0)
        )
        sim.run(until=60.0)
        assert job.terminal
        assert job.state is JobState.TIMEOUT
        assert len(job.attempts) < 10  # wall budget stopped the retry loop


class TestReroute:
    def test_killed_node_job_reroutes_and_completes(self):
        sim, grid, dist = des_distributor(retry=FAST_RETRY)
        job = dist.submit(JobRequest(name="victim", sim_duration=5.0))
        dead = next(iter(job.placement))
        rerouted = dist.fail_node(dead)
        assert rerouted == [job]
        assert job.state in (JobState.QUEUED, JobState.RUNNING)
        sim.run()
        assert job.state is JobState.COMPLETED
        assert dead not in job.placement  # completed on a survivor
        assert [a.outcome for a in job.attempts] == ["node_lost", "completed"]
        assert job.attempts[0].error == f"node {dead} failed"
        faults = dist.stats()["faults"]
        assert faults["node_failures"] == 1
        assert faults["jobs_orphaned"] == 1
        assert faults["reroutes"] == 1
        assert faults["retries"] == 1

    def test_attempt_sealed_by_its_cancel_still_reroutes(self):
        # A SubprocessBackend run cancelled before its spawn reports at once
        # on the I/O thread; the node loss must win over that cancel.
        class SealOnCancel(ExecutionBackend):
            def launch(self, job):
                handle = ExecutionHandle(job)

                def request_cancel():
                    ExecutionHandle.request_cancel(handle)
                    handle.finish(-1)

                handle.request_cancel = request_cancel
                return handle

        grid = Grid(ClusterSpec.small(segments=1, slaves=3, cores=2))
        dist = JobDistributor(grid, SealOnCancel(), retry=FAST_RETRY)
        job = dist.submit(JobRequest(name="victim", argv=["true"]))
        dead = next(iter(job.placement))
        assert dist.fail_node(dead) == [job]
        assert job.state is not JobState.CANCELLED
        assert [a.outcome for a in job.attempts] == ["node_lost"]

    def test_node_loss_without_policy_seals_failed(self):
        sim, grid, dist = des_distributor()
        job = dist.submit(JobRequest(name="victim", sim_duration=5.0))
        dead = next(iter(job.placement))
        assert dist.fail_node(dead) == []
        assert job.state is JobState.FAILED
        assert job.attempts[0].outcome == "node_lost"
        assert dist.stats()["faults"]["reroutes"] == 0

    def test_fail_node_frees_co_allocations_on_survivors(self):
        # A parallel job spanning several nodes must release the cores it
        # holds on *surviving* nodes when one of its nodes dies.
        sim, grid, dist = des_distributor(slaves=4)
        from repro.cluster.job import JobKind

        job = dist.submit(
            JobRequest(name="wide", sim_duration=50.0, kind=JobKind.PARALLEL, n_tasks=6)
        )
        assert len(job.placement) >= 2
        dead = next(iter(job.placement))
        dist.fail_node(dead)
        assert job.state is JobState.FAILED
        for node in grid.compute_nodes():
            assert not node.holds(job.id)
        assert grid.cores_free == grid.cores_total - 2  # only the dead node missing

    def test_double_fail_and_double_recover_are_noops(self):
        # Idempotency contract: a duplicate fault/recovery delivery (spot
        # reclamation racing a health downing, a replayed RPC) must not
        # crash, double-requeue, or inflate the counters.
        sim, grid, dist = des_distributor()
        job = dist.submit(JobRequest(name="victim", sim_duration=50.0))
        dead = next(iter(job.placement))
        dist.fail_node(dead)
        assert dist.fail_node(dead) == []           # second fail: no-op
        assert dist.stats()["faults"]["node_failures"] == 1
        assert len(job.attempts) == 1               # no double-retirement
        dist.recover_node(dead)
        dist.recover_node(dead)                     # second recover: no-op
        assert dist.stats()["faults"]["nodes_recovered"] == 1
        assert grid.node(dead).state is NodeState.UP

    def test_kill_mid_array_never_strands_queued_siblings(self):
        # Regression: FaultInjector used to poke placements/_handles
        # directly; a kill between array dispatch rounds could leave the
        # queued siblings waiting forever.
        sim, grid, dist = des_distributor()
        jobs = dist.submit_array(JobRequest(name="arr", sim_duration=4.0), 10)
        running = [j for j in jobs if j.state is JobState.RUNNING]
        assert running and any(j.state is JobState.QUEUED for j in jobs)
        injector = FaultInjector(dist)
        injector.kill_node(next(iter(running[0].placement)))
        sim.run()
        states = {j.state for j in jobs}
        assert JobState.QUEUED not in states and JobState.RUNNING not in states
        assert all(j.terminal for j in jobs)
        # survivors absorbed the whole queue
        assert sum(1 for j in jobs if j.state is JobState.COMPLETED) >= 6

    def test_kill_mid_array_with_retry_completes_everything(self):
        sim, grid, dist = des_distributor(retry=FAST_RETRY)
        jobs = dist.submit_array(JobRequest(name="arr", sim_duration=4.0), 10)
        victim_node = next(iter(next(j for j in jobs if j.state is JobState.RUNNING).placement))
        FaultInjector(dist).kill_node(victim_node)
        sim.run()
        assert all(j.state is JobState.COMPLETED for j in jobs)

    def test_injector_delegates_to_distributor_api(self):
        sim, grid, dist = des_distributor(retry=FAST_RETRY)
        job = dist.submit(JobRequest(name="v", sim_duration=5.0))
        dead = next(iter(job.placement))
        injector = FaultInjector(dist)
        assert injector.kill_node(dead) == [job.id]
        # first-class path: counted, rerouted, no direct resubmission
        assert dist.stats()["faults"]["node_failures"] == 1
        sim.run()
        assert job.state is JobState.COMPLETED
        assert len(dist.jobs) == 1  # rerouted in place, not cloned


class TestHealth:
    def test_repeated_failures_mark_node_suspect_and_skip_it(self):
        sim, grid, dist = des_distributor(
            health_policy=HealthPolicy(suspect_after=2, window_s=100.0, probation_s=1000.0)
        )
        # Two timed-out attempts on the same (first-fit) node flag it.
        for k in range(2):
            job = dist.submit(JobRequest(name=f"t{k}", sim_duration=50.0, timeout_s=1.0))
            node = next(iter(job.placement))
            sim.run(until=sim.now + 5.0)
            assert job.state is JobState.TIMEOUT
        assert grid.node(node).state is NodeState.SUSPECT
        assert dist.stats()["faults"]["nodes_suspected"] == 1
        assert grid.cores_up == grid.cores_total - 2  # suspect hides capacity
        # placement now avoids the suspect node
        ok = dist.submit(JobRequest(name="ok", sim_duration=1.0))
        assert node not in ok.placement
        sim.run(until=sim.now + 5.0)
        assert ok.state is JobState.COMPLETED

    def test_suspect_node_rejoins_after_probation(self):
        sim, grid, dist = des_distributor(
            health_policy=HealthPolicy(suspect_after=1, window_s=100.0, probation_s=30.0)
        )
        job = dist.submit(JobRequest(name="t", sim_duration=50.0, timeout_s=1.0))
        node = next(iter(job.placement))
        sim.run(until=5.0)
        assert grid.node(node).state is NodeState.SUSPECT
        # quiet period passes on virtual time; the next round rejoins it
        sim.run(until=40.0)
        dist.dispatch()
        assert grid.node(node).state is NodeState.UP
        assert dist.stats()["faults"]["nodes_rejoined"] == 1
        assert grid.cores_up == grid.cores_total

    def test_degraded_flag_tracks_surviving_capacity(self):
        sim, grid, dist = des_distributor(
            slaves=4, health_policy=HealthPolicy(degraded_below=0.5)
        )
        assert dist.health is not None and not dist.health.degraded
        dist.fail_node("seg-0-n00")
        dist.fail_node("seg-0-n01")
        assert dist.health.up_fraction == 0.5
        assert not dist.health.degraded  # strictly-below threshold
        dist.fail_node("seg-0-n02")
        snap = dist.stats()["health"]
        assert snap["degraded"] is True
        assert snap["cores_up"] == 2
        assert set(snap["down_nodes"]) == {"seg-0-n00", "seg-0-n01", "seg-0-n02"}
        dist.recover_node("seg-0-n00")
        assert not dist.health.degraded

    def test_success_heartbeats_clear_nothing_but_are_recorded(self):
        sim, grid, dist = des_distributor()
        job = dist.submit(JobRequest(name="ok", sim_duration=1.0))
        node = next(iter(job.placement))
        sim.run()
        assert job.state is JobState.COMPLETED
        health = dist.health
        assert health._nodes[node].last_heartbeat is not None

    def test_track_health_false_disables_monitor(self):
        sim, grid, dist = des_distributor(track_health=False)
        assert dist.health is None
        job = dist.submit(JobRequest(name="j", sim_duration=1.0))
        sim.run()
        assert job.state is JobState.COMPLETED
        assert dist.stats()["health"] is None

    def test_a_refused_launch_does_not_drain_the_nodes(self, tmp_path):
        """A backend that cannot run a request refuses its launch: the job
        fails, but the nodes it was placed on are not to blame."""
        store = DurabilityStore(tmp_path, fsync="never")
        grid = Grid(ClusterSpec.small())
        dist = JobDistributor(grid, SubprocessBackend(), journal=JobJournal(store))
        jobs = [dist.submit(JobRequest(sim_duration=1.0)) for _ in range(8)]
        assert dist.wait_all(10)
        assert {j.state for j in jobs} == {JobState.FAILED}
        assert all(n.state is NodeState.UP for n in grid.compute_nodes())
        assert grid.cores_up == grid.cores_total == 8
        store.close()
        snapshot, records, _ = DurabilityStore(tmp_path, fsync="never").recover()
        replayed = replay(snapshot, records)
        assert {j.id: j.state.value for j in jobs} == {i: w["state"] for i, w in replayed.items()}

    def test_health_monitor_failure_window_slides(self):
        grid = Grid(ClusterSpec.small(segments=1, slaves=2, cores=2))
        hm = HealthMonitor(grid, HealthPolicy(suspect_after=3, window_s=10.0))
        assert not hm.record_failure("seg-0-n00", t=0.0)
        assert not hm.record_failure("seg-0-n00", t=1.0)
        # the early failures age out of the window: no trip yet
        assert not hm.record_failure("seg-0-n00", t=11.5)
        assert not hm.record_failure("seg-0-n00", t=12.0)
        # but three within the same 10s window trip it
        assert hm.record_failure("seg-0-n00", t=13.0)


class TestStressKillRevive:
    def test_randomized_kill_revive_keeps_index_equal_to_rescan(self):
        rng = np.random.default_rng(2024)
        sim, grid, dist = des_distributor(
            segments=2, slaves=4, cores=2,
            retry=RetryPolicy(max_attempts=6, backoff_base_s=0.5, jitter=0.0),
        )
        names = [n.name for n in grid.compute_nodes()]

        def check_invariants():
            nodes = list(grid.compute_nodes())
            assert grid.cores_free == sum(n.cores_free for n in nodes)
            assert grid.cores_up == sum(
                n.spec.cores for n in nodes if n.state is NodeState.UP
            )
            for seg in grid.segments:
                assert seg.cores_free == sum(n.cores_free for n in seg.slaves)
                assert seg.cores_up == sum(
                    n.spec.cores for n in seg.slaves if n.state is NodeState.UP
                )
            for job in dist.jobs.values():
                if job.state is JobState.RUNNING:
                    for node_name, cores in job.placement.items():
                        node = grid.node(node_name)
                        assert node.state is NodeState.UP
                        assert node._job_cores.get(job.id) == cores

        for step in range(60):
            op = rng.random()
            up = [n for n in names if grid.node(n).state is NodeState.UP]
            down = [n for n in names if grid.node(n).state is NodeState.DOWN]
            if op < 0.45:
                dist.submit(
                    JobRequest(name=f"s{step}", sim_duration=float(rng.uniform(0.5, 4.0)))
                )
            elif op < 0.65 and len(up) > 1:
                dist.fail_node(up[int(rng.integers(0, len(up)))])
            elif op < 0.8 and down:
                dist.recover_node(down[int(rng.integers(0, len(down)))])
            else:
                sim.run(until=sim.now + float(rng.uniform(0.5, 3.0)))
            check_invariants()

        for name in names:
            if grid.node(name).state is not NodeState.UP:
                dist.recover_node(name)
        sim.run()
        check_invariants()
        assert all(j.terminal for j in dist.jobs.values())
        assert grid.cores_free == grid.cores_total


class TestConcurrencySmoke:
    def test_wait_all_returns_under_concurrent_kill_revive(self):
        def on_alarm(signum, frame):  # pragma: no cover - only on deadlock
            raise TimeoutError("wait_all deadlocked under kill/revive churn")

        old = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(30)  # hard bound: a deadlock fails loudly, not forever
        try:
            grid = Grid(ClusterSpec.small(segments=2, slaves=3, cores=2))
            dist = JobDistributor(
                grid,
                CallableBackend(),
                retry=RetryPolicy(max_attempts=8, backoff_base_s=0.01, jitter=0.0),
            )
            jobs = [
                dist.submit(
                    JobRequest(name=f"c{i}", callable=lambda job: time.sleep(0.03))
                )
                for i in range(12)
            ]
            stop = threading.Event()

            def churn():
                rng = np.random.default_rng(7)
                names = [n.name for n in grid.compute_nodes()]
                while not stop.is_set():
                    name = names[int(rng.integers(0, len(names)))]
                    try:
                        dist.fail_node(name)
                        time.sleep(0.02)
                        dist.recover_node(name)
                    except ResourceError:
                        pass  # raced with ourselves; fine
                    time.sleep(0.01)

            t = threading.Thread(target=churn, daemon=True)
            t.start()
            try:
                finished = dist.wait_all(timeout=20.0)
            finally:
                stop.set()
                t.join(5.0)
            dist.dispatch()
            assert finished, dist.stats()
            assert all(j.terminal for j in jobs)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)


class TestPortalSurfacing:
    def test_stats_exposes_faults_and_health(self):
        sim, grid, dist = des_distributor()
        stats = dist.stats()
        assert set(stats["faults"]) >= {
            "retries", "timeouts", "wall_timeouts", "reroutes",
            "node_failures", "jobs_orphaned", "nodes_suspected",
            "nodes_rejoined", "nodes_recovered",
        }
        assert stats["health"]["degraded"] is False
        assert stats["grid"]["cores_up"] == grid.cores_total

    def test_describe_and_job_page_show_attempt_lineage(self):
        sim, grid, dist = des_distributor(retry=FAST_RETRY)
        job = dist.submit(JobRequest(name="victim", sim_duration=5.0))
        dead = next(iter(job.placement))
        dist.fail_node(dead)
        sim.run()
        desc = job.describe()
        assert desc["retries"] == 1
        assert [a["outcome"] for a in desc["attempts"]] == ["node_lost", "completed"]
        from repro.portal import templates

        page = templates.job_page(desc, "out", "")
        assert "Attempts" in page and "node_lost" in page

    def test_dashboard_banner_renders_when_degraded(self):
        from repro.portal import templates

        health = {
            "degraded": True, "up_fraction": 0.25, "cores_up": 2, "cores_total": 8,
            "suspect_nodes": ["seg-0-n01"], "down_nodes": ["seg-0-n00"],
            "failures_by_node": {},
        }
        page = templates.dashboard_page("alice", [], [], {"segments": {}}, health=health)
        assert "Cluster degraded" in page and "seg-0-n00" in page
        healthy = dict(health, degraded=False)
        page2 = templates.dashboard_page("alice", [], [], {"segments": {}}, health=healthy)
        assert "Cluster degraded" not in page2

    def test_output_fingerprint_moves_on_retry(self):
        sim, grid, dist = des_distributor(retry=FAST_RETRY)
        job = dist.submit(JobRequest(name="victim", sim_duration=5.0))
        from repro.bus.service import LocalCluster

        port = LocalCluster(dist)
        fp_before = port.output_fingerprint(job.request.owner, job.id)
        dist.fail_node(next(iter(job.placement)))
        fp_after = port.output_fingerprint(job.request.owner, job.id)
        assert fp_before != fp_after  # pollers see the reroute immediately
        sim.run()
        assert job.state is JobState.COMPLETED


class TestPortalAcceptance:
    """End-to-end acceptance: a compiled job survives its node dying."""

    @pytest.mark.skipif(not __import__("shutil").which("gcc"), reason="gcc not available")
    def test_killed_node_job_reroutes_and_lineage_shows_in_portal(
        self, portal_app, student_client
    ):
        program = (
            '#include <stdio.h>\n#include <unistd.h>\n'
            'int main(void){ sleep(2); printf("survived\\n"); return 0; }\n'
        )
        student_client.write_file("survivor.c", program)
        job_id = student_client.submit_job("survivor.c", max_retries=2)["job"]["id"]

        dist = portal_app.proxy.distributor
        deadline = time.time() + 10.0
        while time.time() < deadline:
            desc = student_client.job(job_id)
            if desc["state"] == "running" and desc["placement"]:
                break
            time.sleep(0.02)
        else:
            pytest.fail(f"job never started: {student_client.job(job_id)}")

        victim = next(iter(desc["placement"]))
        dist.fail_node(victim)

        final = student_client.wait_for_job(job_id, timeout=30.0)
        assert final["state"] == "completed", final
        assert final["retries"] >= 1
        outcomes = [a["outcome"] for a in final["attempts"]]
        assert outcomes[0] == "node_lost" and outcomes[-1] == "completed"
        assert victim not in final["placement"]
        assert "survived" in student_client.job_output(job_id)["stdout"]
        faults = dist.stats()["faults"]
        assert faults["reroutes"] >= 1 and faults["jobs_orphaned"] >= 1
