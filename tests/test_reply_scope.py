"""A submission is acknowledged before it is launched.

``repro._reply`` defers work to the end of the current reply scope; the
portal's HTTP server opens one around every request, and
``JobDistributor.submit`` defers its dispatch round through it.  The
unit tests pin the scope itself; the live-HTTP tests run on both
transports (a monolith and a ``FrontendFleet`` worker, whose bus RPC
runs on the request's thread and so inside its scope) and check that
no acknowledged job is lost whatever goes wrong around the reply.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
from urllib.parse import urlsplit

import pytest

from repro._reply import ReplyScope, after_reply
from repro.cluster.backends import SubprocessBackend
from repro.cluster.distributor import JobDistributor
from repro.cluster.grid import Grid
from repro.cluster.job import JobRequest, JobState
from repro.cluster.spec import ClusterSpec
from repro.portal import make_default_app
from repro.portal.frontend import FrontendFleet
from repro.portal.server import start_background

_SPEC = {"name": "hi", "argv": ["echo", "hi"]}


# -- the scope ------------------------------------------------------------------
class TestReplyScope:
    def test_a_callback_runs_after_the_scope_body(self):
        order = []
        with ReplyScope(on_error=pytest.fail):
            after_reply(lambda: order.append("deferred"))
            order.append("body")
        assert order == ["body", "deferred"]

    def test_outside_a_scope_a_callback_runs_inline(self):
        order = []
        after_reply(lambda: order.append("deferred"))
        order.append("after")
        assert order == ["deferred", "after"]

    def test_a_duplicate_runs_once(self):
        calls = []

        def fn():
            calls.append(1)

        with ReplyScope(on_error=pytest.fail):
            after_reply(fn)
            after_reply(fn)
        assert calls == [1]

    def test_a_raising_callback_is_reported_and_skips_nothing(self):
        order, errors = [], []

        def boom():
            raise RuntimeError("boom")

        with ReplyScope(on_error=lambda: errors.append("reported")):
            after_reply(boom)
            after_reply(lambda: order.append("next"))
        assert (errors, order) == (["reported"], ["next"])

    def test_the_thread_yields_once_before_a_non_empty_queue(self, monkeypatch):
        order = []
        monkeypatch.setattr("repro._reply.os.sched_yield", lambda: order.append("yield"))
        with ReplyScope(on_error=pytest.fail):
            pass
        assert order == []
        with ReplyScope(on_error=pytest.fail):
            after_reply(lambda: order.append("a"))
            after_reply(lambda: order.append("b"))
        assert order == ["yield", "a", "b"]

    def test_a_callback_that_defers_again_runs_at_once(self):
        order = []
        with ReplyScope(on_error=pytest.fail):
            after_reply(lambda: after_reply(lambda: order.append("nested")))
        assert order == ["nested"]

    def test_the_scope_does_not_reach_another_thread(self):
        order = []
        with ReplyScope(on_error=pytest.fail):
            t = threading.Thread(target=after_reply, args=(lambda: order.append("thread"),))
            t.start()
            t.join()
            order.append("body")
        assert order == ["thread", "body"]


class TestDistributorSubmit:
    def _dist(self) -> JobDistributor:
        return JobDistributor(Grid(ClusterSpec.small()), SubprocessBackend())

    def test_a_direct_submit_still_returns_a_running_job(self):
        dist = self._dist()
        job = dist.submit(JobRequest(name="s", argv=["sleep", "0.1"]))
        assert job.state is JobState.RUNNING
        assert dist.wait_all(timeout=10.0)
        assert job.state is JobState.COMPLETED

    def test_a_round_that_raises_is_tried_again_without_another_trigger(self):
        dist = self._dist()
        select = dist.scheduler.select
        failures = [RuntimeError("scheduler down")]

        def failing_once(*args, **kwargs):
            if failures:
                raise failures.pop()
            return select(*args, **kwargs)

        dist.scheduler.select = failing_once
        with pytest.raises(RuntimeError, match="scheduler down"):
            dist.submit(JobRequest(name="s", argv=["true"]))
        assert dist.wait_all(timeout=10.0)
        (job,) = dist.jobs.values()
        assert job.state is JobState.COMPLETED

    def test_inside_a_scope_submit_acknowledges_a_queued_job(self):
        dist = self._dist()
        dispatch, here = dist.dispatch, threading.current_thread()
        rounds = []  # dispatches triggered on this thread, not by completions

        def counting_dispatch():
            if threading.current_thread() is here:
                rounds.append(1)
            return dispatch()

        dist.dispatch = counting_dispatch
        with ReplyScope(on_error=pytest.fail):
            job = dist.submit(JobRequest(name="s", argv=["true"]))
            jobs = dist.submit_array(JobRequest(name="a", argv=["true"]), 2)
            assert [j.state for j in (job, *jobs)] == [JobState.QUEUED] * 3
            assert rounds == []
        assert rounds == [1]  # one round for all three
        assert all(j.state is not JobState.QUEUED for j in (job, *jobs))
        assert dist.wait_all(timeout=10.0)


# -- live HTTP, both transports ---------------------------------------------------
class Live:
    """One deployment served over a real socket: its distributor and URL."""

    def __init__(self, kind: str, tmp_path, wrap=None) -> None:
        self.fleet = None
        if kind == "local":
            app = make_default_app(str(tmp_path / "homes"), cluster_spec=ClusterSpec.small())
            self.dist, users = app.proxy.distributor, app.users
        else:
            self.dist = JobDistributor(Grid(ClusterSpec.small()), SubprocessBackend())
            self.fleet = FrontendFleet(self.dist, n_workers=1, home_root=str(tmp_path / "homes"))
            self.fleet.start()
            app, users = self.fleet.workers[0], self.fleet.users
        users.add_user("alice", "alice-pass")
        self.httpd, url = start_background(wrap(app) if wrap else app)
        self.errors: list[BaseException] = []
        # record, not print, what the server reports
        self.httpd.handle_error = lambda request, address: self.errors.append(sys.exc_info()[1])
        parts = urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self.token = self.post("/api/login", {"username": "alice", "password": "alice-pass"})[1][
            "token"
        ]

    def post(self, path: str, body: dict, token: str | None = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        headers = {"Content-Type": "application/json"}
        if token:
            headers["Authorization"] = f"Bearer {token}"
        try:
            conn.request("POST", path, json.dumps(body), headers)
            self.last_client = conn.sock.getsockname()
            resp = conn.getresponse()
            payload = resp.read()
        finally:
            conn.close()
        is_json = resp.getheader("Content-Type", "").startswith("application/json")
        return resp.status, json.loads(payload) if is_json else payload

    def submit(self):
        return self.post("/api/jobs", _SPEC, self.token)

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self.fleet is not None:
            self.fleet.stop()


@pytest.fixture(params=["local", "bus"])
def kind(request):
    return request.param


def _settled(dist: JobDistributor, n: int) -> list:
    """Wait for the cluster to drain; every job, each in a terminal state."""
    assert dist.wait_all(timeout=10.0)
    jobs = list(dist.jobs.values())
    assert len(jobs) == n and all(j.terminal for j in jobs), [j.state for j in jobs]
    return jobs


class TestAcknowledgeThenLaunch:
    def test_the_201_reports_a_queued_job_that_then_completes(self, kind, tmp_path):
        live = Live(kind, tmp_path)
        try:
            status, body = live.submit()
            assert (status, body["job"]["state"]) == (201, "queued")
            (job,) = _settled(live.dist, 1)
            assert job.id == body["job"]["id"] and job.state is JobState.COMPLETED
        finally:
            live.close()

    def test_the_launch_comes_after_the_connection_is_closed(self, kind, tmp_path):
        live = Live(kind, tmp_path)
        events = []
        launch, shutdown = live.dist.backend.launch, live.httpd.shutdown_request

        def recording_launch(job):
            events.append("launch")
            return launch(job)

        def recording_shutdown(request):
            client = request.getpeername()  # the login's close may land here too
            shutdown(request)
            events.append(("closed", client))

        live.dist.backend.launch = recording_launch
        live.httpd.shutdown_request = recording_shutdown
        try:
            status, _ = live.submit()
            assert status == 201
            _settled(live.dist, 1)
            submit_closed = ("closed", live.last_client)
            assert [e for e in events if e in (submit_closed, "launch")] == [
                submit_closed, "launch",
            ]
        finally:
            live.close()

    def test_a_client_that_hangs_up_before_the_201_still_gets_its_job(self, kind, tmp_path):
        live = Live(kind, tmp_path)
        body = json.dumps(_SPEC).encode()
        request = (
            f"POST /api/jobs HTTP/1.0\r\nAuthorization: Bearer {live.token}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        try:
            with socket.create_connection((live.host, live.port), timeout=10) as sock:
                sock.sendall(request)
            deadline = time.monotonic() + 10.0
            while not live.dist.jobs and time.monotonic() < deadline:
                time.sleep(0.01)
            (job,) = _settled(live.dist, 1)
            assert job.state is JobState.COMPLETED
        finally:
            live.close()

    def test_an_app_that_raises_after_submitting_still_launches_the_job(self, kind, tmp_path):
        def raising_after(app):
            def wrapped(environ, start_response):
                result = app(environ, start_response)
                if environ["PATH_INFO"] == "/api/jobs":
                    raise RuntimeError("after submit")
                return result

            return wrapped

        live = Live(kind, tmp_path, wrap=raising_after)
        try:
            status, _ = live.submit()
            assert status == 500
            (job,) = _settled(live.dist, 1)
            assert job.state is JobState.COMPLETED
            assert [type(e) for e in live.errors] == [RuntimeError]
        finally:
            live.close()

    def test_concurrent_submissions_each_become_one_completed_job(self, kind, tmp_path):
        live = Live(kind, tmp_path)
        statuses = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def client():
                for _ in range(6):
                    statuses.append(live.submit()[0])

            threads = [threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            assert statuses == [201] * 24
            jobs = _settled(live.dist, 24)
            assert all(j.state is JobState.COMPLETED for j in jobs)
            assert live.errors == []
        finally:
            sys.setswitchinterval(switch)
            live.close()

    def test_a_raising_dispatch_loses_no_acknowledged_job(self, kind, tmp_path):
        live = Live(kind, tmp_path)
        select = live.dist.scheduler.select
        failures = [RuntimeError("scheduler down")]

        def failing_once(*args, **kwargs):
            if failures:
                raise failures.pop()
            return select(*args, **kwargs)

        live.dist.scheduler.select = failing_once
        try:
            status, first = live.submit()
            assert status == 201
            deadline = time.monotonic() + 10.0
            while not live.errors and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [str(e) for e in live.errors] == ["scheduler down"]
            # no other request comes: the failed round's own retry places it
            (job,) = _settled(live.dist, 1)
            assert job.id == first["job"]["id"] and job.state is JobState.COMPLETED
        finally:
            live.close()
