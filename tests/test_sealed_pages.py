"""A finished job's pages are rendered once, at its seal.

A sealed job never changes again, so the distributor hands it to its
sealed-job listeners once, outside its lock; the cluster port renders the
job's describe and output pages for it, and every portal app (the
monolith's, or each scale-out worker's over the ``cluster.jobs.sealed``
topic) stores both in its response cache under the owner's name.  The
owner's read of a sealed job then makes no port call.  Every other read
(another student, an instructor's view_all read, ``?since=N``, an evicted
page) takes the port path, and both paths answer the same bytes.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro.bus.service import CLUSTER_PORT
from repro.cluster.backends import CallableBackend, ExecutionHandle, SubprocessBackend
from repro.cluster.distributor import JobDistributor
from repro.cluster.grid import Grid
from repro.cluster.job import Job, JobRequest, JobState, RetryPolicy
from repro.cluster.spec import ClusterSpec
from repro.durability import recovery
from repro.durability.joblog import JobJournal
from repro.durability.store import DurabilityStore
from repro.portal import PortalClient, make_default_app
from repro.portal.frontend import FrontendFleet


class Deployment:
    """One portal app over one transport, with its distributor and a
    record of every job the distributor has handed to its listeners."""

    def __init__(self, kind: str, app, dist, users, fleet=None) -> None:
        self.kind, self.app, self.dist, self.fleet = kind, app, dist, fleet
        users.add_user("alice", "alice-pass")
        users.add_user("bob", "bob-pass")
        self.transport = PortalClient(app=app)._transport
        self.tokens = {
            who: self._login(who, f"{who}-pass") for who in ("alice", "bob", "admin")
        }
        self._published: set[str] = set()
        self._cond = threading.Condition()
        # registered after the port's own listener, so it runs after every
        # app has stored the job's pages
        dist.on_sealed(self._note)
        #: names of the port methods the app called, in order
        self.port_calls: list[str] = []
        for name in set(CLUSTER_PORT.values()):
            setattr(app.proxy, name, self._counted(name, getattr(app.proxy, name)))

    def _counted(self, name, method):
        def call(*args, **kwargs):
            self.port_calls.append(name)
            return method(*args, **kwargs)
        return call

    def _note(self, job) -> None:
        with self._cond:
            self._published.add(job.id)
            self._cond.notify_all()

    def _login(self, who: str, password: str) -> str:
        status, _, body = self.transport.request(
            "POST", "/api/login",
            f'{{"username": "{who}", "password": "{password}"}}'.encode(),
            {"Content-Type": "application/json"},
        )
        assert status == 200
        return json.loads(body)["token"]

    def seed(self, owner: str, argv: list[str]) -> str:
        """Run a job to its seal and wait until its pages are published."""
        job = self.dist.submit(JobRequest(name="seeded", owner=owner, argv=argv))
        with self._cond:
            assert self._cond.wait_for(lambda: job.id in self._published, timeout=10.0)
        return job.id

    def get(self, who: str, path: str, etag: str | None = None):
        """``(status, headers, body bytes, port calls made)`` of one GET."""
        headers = {"Authorization": f"Bearer {self.tokens[who]}"}
        if etag is not None:
            headers["If-None-Match"] = etag
        before = len(self.port_calls)
        status, out, body = self.transport.request("GET", path, b"", headers)
        return status, out, body, self.port_calls[before:]

    def last_cache(self):
        """The response-cache answer the newest request recorded."""
        return self.app.telemetry.recent_requests(1)[-1]["trace"]["attrs"].get("cache")


def _deploy(kind: str, tmp_path, cache_size: int = 256) -> Deployment:
    if kind == "local":
        app = make_default_app(str(tmp_path / "homes"), cluster_spec=ClusterSpec.small(),
                               cache_size=cache_size)
        return Deployment(kind, app, app.proxy.distributor, app.users)
    dist = JobDistributor(Grid(ClusterSpec.small()), SubprocessBackend())
    fleet = FrontendFleet(dist, n_workers=2, home_root=str(tmp_path / "homes"),
                          cache_size=cache_size).start()
    fleet.users.add_user("admin", "admin-pass", role="admin")
    return Deployment(kind, fleet.workers[0], dist, fleet.users, fleet)


@pytest.fixture(params=["local", "bus"])
def dep(request, tmp_path):
    deployment = _deploy(request.param, tmp_path)
    yield deployment
    if deployment.fleet is not None:
        deployment.fleet.stop()


PAGES = ("/api/jobs/{}", "/api/jobs/{}/output")


def _metric(snapshot: dict, name: str):
    """The value of an unlabelled metric in a ``/metrics?format=json`` body."""
    (series,) = snapshot[name]["series"]
    return series["value"]


class TestSealedReads:
    @pytest.mark.parametrize("page", PAGES)
    def test_owner_read_makes_no_port_call_and_matches_the_pulled_page(self, dep, page):
        path = page.format(dep.seed("alice", ["echo", "hello"]))
        status, headers, pushed, calls = dep.get("alice", path)
        assert (status, calls, dep.last_cache()) == (200, [], "sealed")
        # an instructor's view_all read of the same job takes the port path
        status, pulled_headers, pulled, calls = dep.get("admin", path)
        assert status == 200 and calls and dep.last_cache() == "miss"
        assert pulled == pushed
        assert pulled_headers["ETag"] == headers["ETag"]
        # one validator across both paths
        status, _, body, calls = dep.get("alice", path, etag=pulled_headers["ETag"])
        assert (status, body, calls) == (304, b"", [])
        status, _, body, calls = dep.get("admin", path, etag=headers["ETag"])
        assert (status, body) == (304, b"") and calls

    def test_every_worker_holds_the_pages(self, dep):
        job_id = dep.seed("alice", ["echo", "hello"])
        apps = dep.fleet.workers if dep.fleet is not None else [dep.app]
        for app in apps:
            for kind in ("describe", "output"):
                assert app.cache.peek("sealed", (kind, job_id, "alice")) is not None

    @pytest.mark.parametrize("page", PAGES)
    def test_other_readers_take_the_port_path_with_its_answers(self, dep, page):
        job_id = dep.seed("alice", ["echo", "hello"])
        status, _, _, calls = dep.get("bob", page.format(job_id))
        assert status == 403 and calls
        status, _, _, calls = dep.get("alice", page.format("job-999999"))
        assert status == 404 and calls
        status, _, body, calls = dep.get("admin", page.format(job_id))
        assert status == 200 and calls and b'"state": "completed"' in body

    def test_since_and_an_evicted_page_take_the_port_path(self, dep):
        job_id = dep.seed("alice", ["echo", "hello"])
        status, _, body, calls = dep.get("alice", f"/api/jobs/{job_id}/output?since=1")
        assert status == 200 and calls and dep.last_cache() == "miss"
        assert b'"stdout": []' in body
        _, _, pushed, _ = dep.get("alice", f"/api/jobs/{job_id}")
        for app in dep.fleet.workers if dep.fleet is not None else [dep.app]:
            app.cache.clear()
        status, _, pulled, calls = dep.get("alice", f"/api/jobs/{job_id}")
        assert status == 200 and calls and dep.last_cache() == "miss"
        assert pulled == pushed

    def test_lru_eviction_falls_back_to_the_port(self, tmp_path):
        dep = _deploy("local", tmp_path, cache_size=2)
        job_id = dep.seed("alice", ["echo", "hello"])
        # the status page is a third entry: the describe page, stored first, goes
        assert dep.get("alice", "/api/cluster/status")[0] == 200
        status, _, _, calls = dep.get("alice", f"/api/jobs/{job_id}/output")
        assert (status, calls, dep.last_cache()) == (200, [], "sealed")
        status, _, _, calls = dep.get("alice", f"/api/jobs/{job_id}")
        assert status == 200 and calls and dep.last_cache() == "miss"

    def test_pages_stay_byte_equal_after_later_jobs(self, dep):
        job_id = dep.seed("alice", ["echo", "first"])
        before = [dep.get("alice", page.format(job_id))[:3] for page in PAGES]
        for owner in ("alice", "bob", "alice"):
            dep.seed(owner, ["echo", "later"])
        after = [dep.get("alice", page.format(job_id))[:3] for page in PAGES]
        pulled = [dep.get("admin", page.format(job_id))[2] for page in PAGES]
        assert [(s, h["ETag"], b) for s, h, b in after] == [
            (s, h["ETag"], b) for s, h, b in before
        ]
        assert pulled == [b for _, _, b in before]

    def test_a_sealed_read_counts_one_hit_and_an_unsealed_read_one_lookup(self, dep):
        job_id = dep.seed("alice", ["echo", "hello"])

        def lookups():
            stats = dep.app.cache.stats()
            return stats["hits"], stats["misses"]

        hits, misses = lookups()
        dep.get("alice", f"/api/jobs/{job_id}")
        assert lookups() == (hits + 1, misses)
        metrics = dep.transport.request("GET", "/metrics?format=json", b"", {})[2]
        assert _metric(json.loads(metrics), "repro_respcache_hits_total") == hits + 1
        for who in ("admin", "admin", "bob"):  # miss, hit, 403 before any lookup
            hits, misses = lookups()
            status = dep.get(who, f"/api/jobs/{job_id}")[0]
            after = lookups()
            assert sum(after) - hits - misses == (1 if status == 200 else 0)


# -- the distributor's side -------------------------------------------------------


class Recorder:
    """A sealed-job listener that records each job and whether the
    distributor's lock was free while it ran (another thread's call into
    the distributor returns)."""

    def __init__(self, dist: JobDistributor) -> None:
        self.dist = dist
        self.jobs: list[tuple[str, JobState]] = []
        self.lock_free: list[bool] = []
        self._cond = threading.Condition()
        dist.on_sealed(self)

    def __call__(self, job) -> None:
        self.dist.stats()  # a call back in on this thread
        probe = threading.Thread(target=self.dist.stats)
        probe.start()
        probe.join(5.0)
        with self._cond:
            self.lock_free.append(not probe.is_alive())
            self.jobs.append((job.id, job.state))
            self._cond.notify_all()

    def wait(self, n: int) -> list[tuple[str, JobState]]:
        with self._cond:
            assert self._cond.wait_for(lambda: len(self.jobs) >= n, timeout=10.0), self.jobs
            return list(self.jobs)


def _grid(cores: int = 1) -> Grid:
    return Grid(ClusterSpec.small(segments=1, slaves=1, cores=cores))


class _DoneAtLaunch:
    """A backend whose attempts have finished before ``launch`` returns, so
    the completion is reported while the distributor holds its lock."""

    def launch(self, job):
        handle = ExecutionHandle(job)
        handle.finish(0)
        return handle


class TestSealPublishes:
    def _once(self, recorder: Recorder, expected: dict) -> None:
        jobs = recorder.wait(len(expected))
        assert dict(jobs) == expected
        assert sorted(job_id for job_id, _ in jobs) == sorted(expected)  # once each
        assert all(recorder.lock_free)

    def test_completion(self):
        dist = JobDistributor(_grid(), CallableBackend())
        rec = Recorder(dist)
        job = dist.submit(JobRequest(name="ok", owner="a", callable=lambda j: None))
        assert dist.wait_all(10.0)
        self._once(rec, {job.id: JobState.COMPLETED})

    def test_completion_reported_inside_the_launch(self):
        dist = JobDistributor(_grid(), _DoneAtLaunch())
        rec = Recorder(dist)
        jobs = [dist.submit(JobRequest(name=f"j{i}", owner="a", argv=["true"]))
                for i in range(3)]
        self._once(rec, {job.id: JobState.COMPLETED for job in jobs})

    def test_launch_failure(self):
        dist = JobDistributor(_grid(), SubprocessBackend())
        rec = Recorder(dist)
        job = dist.submit(JobRequest(name="no-argv", owner="a", sim_duration=1.0))
        self._once(rec, {job.id: JobState.FAILED})
        assert dist.job(job.id).error.startswith("launch failed")

    def test_dependency_failed_cancel(self):
        dist = JobDistributor(_grid(2), CallableBackend())
        rec = Recorder(dist)

        def fail(job):
            raise RuntimeError("boom")

        first = dist.submit(JobRequest(name="fails", owner="a", callable=fail))
        second = dist.submit(JobRequest(name="after", owner="a", callable=lambda j: None,
                                        after=(first.id,), after_ok=True))
        assert dist.wait_all(10.0)
        self._once(rec, {first.id: JobState.FAILED, second.id: JobState.CANCELLED})

    def test_run_and_wall_deadlines(self):
        dist = JobDistributor(_grid(), CallableBackend())
        rec = Recorder(dist)
        gate = threading.Event()
        try:
            running = dist.submit(JobRequest(name="slow", owner="a", timeout_s=0.2,
                                             callable=lambda j: gate.wait(10)))
            waiting = dist.submit(JobRequest(name="queued", owner="a", wallclock_timeout_s=0.05,
                                             callable=lambda j: None))
            self._once(rec, {running.id: JobState.TIMEOUT, waiting.id: JobState.TIMEOUT})
        finally:
            gate.set()

    def test_fail_node(self):
        dist = JobDistributor(_grid(), CallableBackend())
        rec = Recorder(dist)
        gate = threading.Event()
        try:
            job = dist.submit(JobRequest(name="lost", owner="a", callable=lambda j: gate.wait(10)))
            assert job.state is JobState.RUNNING
            dist.fail_node(next(iter(job.placement)))
            self._once(rec, {job.id: JobState.FAILED})
        finally:
            gate.set()

    def test_cancel_queued_and_running(self):
        dist = JobDistributor(_grid(), CallableBackend())
        rec = Recorder(dist)
        gate = threading.Event()
        running = dist.submit(JobRequest(name="r", owner="a", callable=lambda j: gate.wait(10)))
        queued = dist.submit(JobRequest(name="q", owner="a", callable=lambda j: None))
        assert dist.cancel(queued.id)
        assert dist.cancel(running.id)
        gate.set()
        self._once(rec, {queued.id: JobState.CANCELLED, running.id: JobState.CANCELLED})

    def test_recovery(self, tmp_path, monkeypatch):
        store = DurabilityStore(tmp_path, fsync="never")
        dist = JobDistributor(_grid(), CallableBackend(), journal=JobJournal(store))
        gate = threading.Event()
        recorders = []

        class Listened(JobDistributor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                recorders.append(Recorder(self))

        monkeypatch.setattr(recovery, "JobDistributor", Listened)
        try:
            running = dist.submit(JobRequest(name="r", owner="a", callable=lambda j: gate.wait(10)))
            queued = dist.submit(JobRequest(name="q", owner="a", callable=lambda j: None))
            booted, report = recovery.recover_distributor(
                DurabilityStore(tmp_path, fsync="never"), _grid(), CallableBackend()
            )
        finally:
            gate.set()
        assert report.sealed_unrecoverable == 2
        self._once(recorders[0], {running.id: JobState.FAILED, queued.id: JobState.FAILED})

    def test_a_retried_job_publishes_only_at_its_final_seal(self):
        dist = JobDistributor(_grid(), CallableBackend())
        rec = Recorder(dist)
        tries = []

        def flaky(job):
            tries.append(job.attempt_epoch)
            if len(tries) < 3:
                raise RuntimeError("flaky")

        job = dist.submit(JobRequest(
            name="flaky", owner="a", callable=flaky,
            retry=RetryPolicy(3, backoff_base_s=0.01, jitter=0.0),
        ))
        assert dist.wait_all(10.0)
        self._once(rec, {job.id: JobState.COMPLETED})
        assert len(dist.job(job.id).attempts) == 3

    def test_a_terminal_state_is_never_seen_before_its_finish_time(self, monkeypatch):
        """A describe read without the lock that sees the terminal state
        must see the whole sealed job, or the pull path caches a page with
        no runtime under a fingerprint that never changes again."""
        seen = []
        transition = Job.transition

        def watched(job, to):
            if to in (JobState.COMPLETED, JobState.CANCELLED):
                seen.append(job.finished_at)
            transition(job, to)

        monkeypatch.setattr(Job, "transition", watched)
        dist = JobDistributor(_grid(), CallableBackend())
        dist.submit(JobRequest(name="ok", owner="a", callable=lambda j: None))
        queued = dist.submit(JobRequest(name="q", owner="a", callable=lambda j: None))
        dist.cancel(queued.id)
        assert dist.wait_all(10.0)
        assert len(seen) == 2 and None not in seen

    def test_concurrent_seals_each_publish_once(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            dist = JobDistributor(_grid(4), CallableBackend())
            seen: list[str] = []
            dist.on_sealed(lambda job: seen.append(job.id))
            ids: list[str] = []

            def submit_some():
                for _ in range(15):
                    ids.append(dist.submit(JobRequest(name="j", owner="a",
                                                      callable=lambda j: None)).id)

            threads = [threading.Thread(target=submit_some) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(20.0)
                assert not thread.is_alive()
            assert dist.wait_all(20.0)
            deadline = time.monotonic() + 10.0
            while len(seen) < len(ids) and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == sorted(ids) and len(ids) == 90

    def test_a_raising_listener_loses_only_its_own_delivery(self):
        dist = JobDistributor(_grid(), CallableBackend())

        def broken(job):
            raise RuntimeError("listener bug")

        dist.on_sealed(broken)
        rec = Recorder(dist)
        job = dist.submit(JobRequest(name="ok", owner="a", callable=lambda j: None))
        assert dist.wait_all(10.0)
        self._once(rec, {job.id: JobState.COMPLETED})
        assert [e.name for e in dist.telemetry.events.snapshot()].count(
            "sealed_listener_failed") == 1
