"""One way to end an attempt and one way to seal a job.

A backend only reports an attempt's result on its handle; the
distributor settles every outcome (another attempt, or the seal) under
its lock.  Each test below pins a race or a bookkeeping gap that came
from settling a job in more than one place.
"""

import os
import queue
import sys
import threading
import time

from repro._reply import ReplyScope
from repro.cluster import (
    ClusterSpec,
    Grid,
    JobDistributor,
    JobKind,
    JobRequest,
    JobState,
    RetryPolicy,
    SubprocessBackend,
)
from repro.cluster.backends import ExecutionBackend, ExecutionHandle
from repro.durability import DurabilityStore, JobJournal, replay
from repro.telemetry import render_prometheus


class ManualBackend(ExecutionBackend):
    """Starts nothing: each attempt ends when a test reports its result."""

    def __init__(self) -> None:
        self.handles: list[ExecutionHandle] = []

    def launch(self, job):
        handle = ExecutionHandle(job)
        self.handles.append(handle)
        return handle


class RaisingBackend(ExecutionBackend):
    """Every launch raises, as a backend given a request it cannot run does."""

    def launch(self, job):
        raise RuntimeError("no such program")


def report(handle: ExecutionHandle, exit_code: int, error: str | None = None) -> None:
    handle.finish(exit_code, error)


def manual_distributor(slaves: int = 2, **kwargs):
    backend = ManualBackend()
    grid = Grid(ClusterSpec.small(segments=1, slaves=slaves, cores=1))
    return backend, JobDistributor(grid, backend, track_health=False, **kwargs)


def wait_for_line(job, needle: str, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(needle in line for line in job.stdout.tail(50)):
            return True
        time.sleep(0.02)
    return False


class TestOneSettlePath:
    def test_a_completion_racing_fail_node_ends_as_node_lost(self, tmp_path):
        store = DurabilityStore(tmp_path, fsync="never")
        journal = JobJournal(store)
        backend, dist = manual_distributor(journal=journal)
        job = dist.submit(JobRequest(name="racer", argv=["true"]))
        (handle,) = backend.handles
        with dist._lock:
            reporter = threading.Thread(target=report, args=(handle, 0))
            reporter.start()
            assert handle.wait(5)  # reported; its callback now waits for the lock
            dist.fail_node(next(iter(job.placement)))
        reporter.join(5)
        assert dist.wait_all(2)
        assert job.state is JobState.FAILED
        assert [a.outcome for a in job.attempts] == ["node_lost"]
        store.close()
        store = DurabilityStore(tmp_path, fsync="never")
        snapshot, records, _ = store.recover()
        store.close()
        wire = replay(snapshot, records)[job.id]
        assert wire["state"] == job.state.value
        assert wire["error"] == job.error
        assert [a["outcome"] for a in wire["attempts"]] == ["node_lost"]

    def test_a_wall_deadline_while_a_failure_report_is_in_flight_seals(self):
        clock = [0.0]
        backend, dist = manual_distributor(
            now_fn=lambda: clock[0], defer_fn=lambda delay, cb: None,
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.5, jitter=0.0),
        )
        job = dist.submit(JobRequest(name="slow", argv=["false"], wallclock_timeout_s=10.0))
        (handle,) = backend.handles
        mark_done = handle._mark_done
        handle._mark_done = lambda: None  # the result is reported; its callback waits
        report(handle, 1)
        clock[0] = 11.0
        dist.dispatch()
        mark_done()
        clock[0] = 12.0
        dist.dispatch()
        assert job.state is JobState.TIMEOUT
        assert job.error == "wallclock timeout"
        assert len(backend.handles) == 1
        assert [a.outcome for a in job.attempts] == ["timeout"]

    def test_a_queued_cancel_is_sealed_like_any_other(self):
        backend, dist = manual_distributor(slaves=1)
        dist.submit(JobRequest(name="blocker", argv=["true"]))
        queued = dist.submit(JobRequest(name="chat", kind=JobKind.INTERACTIVE, argv=["cat"]))
        dependent = dist.submit(
            JobRequest(name="next", argv=["true"], after=(queued.id,), after_ok=True)
        )
        assert queued.state is JobState.QUEUED
        assert dist.cancel(queued.id)
        assert queued.state is JobState.CANCELLED
        assert queued.stdin.closed
        assert dependent.state is JobState.CANCELLED  # no other trigger needed
        assert dependent.error == "dependency failed"
        assert [r.state for r in dist.monitor.records] == ["cancelled", "cancelled"]
        text = render_prometheus(dist.telemetry.registry.snapshot())
        assert 'repro_cluster_jobs_finished_total{state="cancelled"} 2' in text

    def test_a_doomed_dependent_moves_the_version(self):
        backend, dist = manual_distributor()
        first = dist.submit(JobRequest(name="first", argv=["false"]))
        report(backend.handles[0], 1)
        assert first.state is JobState.FAILED
        with ReplyScope(on_error=lambda: None):  # the dispatch runs at the scope's exit
            dependent = dist.submit(
                JobRequest(name="next", argv=["true"], after=(first.id,), after_ok=True)
            )
            before = dist.control_state()
            assert dependent.state is JobState.QUEUED
        assert dependent.state is JobState.CANCELLED
        assert dist.control_state()["version"] > before["version"]


    def test_a_launch_that_raises_ends_the_attempt_failed(self, tmp_path):
        store = DurabilityStore(tmp_path, fsync="never")
        grid = Grid(ClusterSpec.small(segments=1, slaves=2, cores=1))
        dist = JobDistributor(
            grid, RaisingBackend(), track_health=False, journal=JobJournal(store),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0, jitter=0.0),
        )
        job = dist.submit(JobRequest(name="broken", argv=["true"]))
        assert dist.wait_all(5)
        assert job.state is JobState.FAILED
        assert job.error == "launch failed: no such program"
        assert [a.outcome for a in job.attempts] == ["failed", "failed"]  # retried, then sealed
        assert grid.cores_free == grid.cores_total
        assert not dist._running and not dist._handles
        store.close()
        store = DurabilityStore(tmp_path, fsync="never")
        snapshot, records, _ = store.recover()
        store.close()
        wire = replay(snapshot, records)[job.id]
        assert wire["state"] == "failed" and wire["error"] == job.error
        assert [a["outcome"] for a in wire["attempts"]] == ["failed", "failed"]


class TestConcurrentSettling:
    def test_reports_racing_node_churn_settle_each_job_once(self):
        """Four reporter threads end attempts while the main thread fails and
        revives nodes; every job must end terminal with a consistent lineage
        and every core must come back."""
        live: queue.Queue = queue.Queue()

        class QueueBackend(ManualBackend):
            def launch(self, job):
                handle = super().launch(job)
                live.put(handle)
                return handle

        backend = QueueBackend()
        grid = Grid(ClusterSpec.small(segments=1, slaves=4, cores=2))
        dist = JobDistributor(grid, backend, track_health=False,
                              retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0))
        stop = threading.Event()

        def reporter() -> None:
            while not stop.is_set():
                try:
                    handle = live.get(timeout=0.01)
                except queue.Empty:
                    continue
                report(handle, 0 if handle.job.seq % 3 else 1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=reporter) for _ in range(4)]
        try:
            for t in threads:
                t.start()
            jobs = [dist.submit(JobRequest(name=f"j{i}", argv=["true"])) for i in range(60)]
            names = [node.name for node in grid.compute_nodes()]
            for k in range(40):
                dist.fail_node(names[k % len(names)])
                dist.recover_node(names[k % len(names)])
            assert dist.wait_all(20)
        finally:
            stop.set()
            for t in threads:
                t.join(5)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for job in jobs:
            assert job.terminal, job
            outcomes = [a.outcome for a in job.attempts]
            assert outcomes.count("completed") <= 1, outcomes
            assert len(outcomes) == job.attempt_epoch <= 3, outcomes
            assert (job.state is JobState.COMPLETED) == (outcomes[-1] == "completed")
        assert not dist._handles and not dist._running
        assert grid.cores_free == grid.cores_total


class TestInteractiveRetry:
    def test_a_retry_keeps_the_jobs_stdin(self, tmp_path):
        marker = str(tmp_path / "first-attempt-ran")
        prog = (
            "import os, sys\n"
            f"if not os.path.exists({marker!r}):\n"
            f"    open({marker!r}, 'w').close()\n"
            "    sys.exit(3)\n"
            "print('ready', flush=True)\n"
            "print('got', sys.stdin.readline().strip(), flush=True)\n"
        )
        dist = JobDistributor(
            Grid(ClusterSpec.small()), SubprocessBackend(),
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01, jitter=0.0),
        )
        job = dist.submit(JobRequest(name="again", kind=JobKind.INTERACTIVE,
                                     argv=["python3", "-c", prog], timeout_s=30))
        assert wait_for_line(job, "ready")
        assert os.path.exists(marker)
        job.stdin.write("hello\n")  # written after the retry started
        assert dist.wait_all(30)
        assert job.state is JobState.COMPLETED
        assert "got hello" in job.stdout.tail(10)
        assert [a.outcome for a in job.attempts] == ["failed", "completed"]
        assert job.stdin.closed  # the seal closes it
