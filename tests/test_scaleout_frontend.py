"""The scale-out front-end tier: fleet, replication, cached RPC reads."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.bus.core import MessageBus
from repro.bus.proxy import ClusterProxy
from repro.cluster.backends import SubprocessBackend
from repro.cluster.distributor import JobDistributor
from repro.cluster.grid import Grid
from repro.cluster.spec import ClusterSpec
from repro.portal import PortalClient
from repro.portal.admission import AdmissionController
from repro.portal.frontend import FrontendFleet, FrontendPortal, SessionReplicator
from repro.portal.sessions import SessionStore


def _make_distributor():
    grid = Grid(ClusterSpec.small(segments=2, slaves=2, cores=2))
    return JobDistributor(grid, SubprocessBackend())


@pytest.fixture
def fleet():
    f = FrontendFleet(_make_distributor(), n_workers=3).start()
    f.users.add_user("alice", "secret123")
    f.users.add_user("bob", "secret456")
    yield f
    f.stop()


def _client(worker, username="alice", password="secret123"):
    client = PortalClient(app=worker)
    client.login(username, password)
    return client


def _wait_done(client, job_id, timeout=10.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        desc = client.job(job_id)
        if desc["state"] in ("completed", "failed", "cancelled", "timeout"):
            return desc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish")


class TestSessionReplication:
    def test_login_on_one_worker_is_valid_on_all(self, fleet):
        c0 = _client(fleet.workers[0])
        for worker in fleet.workers[1:]:
            other = PortalClient(app=worker)
            other._token = c0._token
            assert other.whoami()["username"] == "alice"

    def test_logout_anywhere_kills_the_session_everywhere(self, fleet):
        c0 = _client(fleet.workers[0])
        c2 = PortalClient(app=fleet.workers[2])
        c2._token = c0._token
        c2.logout()
        for worker in fleet.workers:
            probe = PortalClient(app=worker)
            probe._token = c0._token
            with pytest.raises(Exception, match="401"):
                probe.whoami()

    def test_origin_ids_prevent_echo_loops(self):
        bus = MessageBus()
        a, b = SessionStore(secret=b"s" * 32), SessionStore(secret=b"s" * 32)
        ra = SessionReplicator(bus, a, "a")
        rb = SessionReplicator(bus, b, "b")
        a.create({"username": "x"})
        assert len(b) == 1
        assert ra.stats() == {"published": 1, "applied": 0, "echoes_ignored": 1}
        assert rb.stats() == {"published": 0, "applied": 1, "echoes_ignored": 0}
        # the replicated install must not have re-published (no storm)
        assert bus.published == 1

    def test_replicated_token_verifies_because_secret_is_shared(self):
        bus = MessageBus()
        a, b = SessionStore(secret=b"k" * 32), SessionStore(secret=b"k" * 32)
        SessionReplicator(bus, a, "a")
        SessionReplicator(bus, b, "b")
        token = a.create({"username": "x"})
        assert b.get(token) == {"username": "x"}


class TestCrossWorkerJobs:
    def test_submit_on_one_worker_poll_on_another(self, fleet):
        c0 = _client(fleet.workers[0])
        c1 = PortalClient(app=fleet.workers[1])
        c1._token = c0._token
        job = c0._call("POST", "/api/jobs", {"name": "hello", "argv": ["echo", "hi"]})
        jid = job["job"]["id"]
        final = _wait_done(c1, jid)
        assert final["state"] == "completed"
        assert c1.job_output(jid)["stdout"] == ["hi"]

    def test_owner_comes_from_the_session_not_the_body(self, fleet):
        c0 = _client(fleet.workers[0])
        job = c0._call(
            "POST", "/api/jobs",
            {"name": "spoof", "argv": ["true"], "owner": "bob"},
        )
        assert job["job"]["owner"] == "alice"

    def test_students_cannot_see_each_others_jobs(self, fleet):
        alice = _client(fleet.workers[0])
        bob = _client(fleet.workers[1], "bob", "secret456")
        job = alice._call("POST", "/api/jobs", {"name": "a", "argv": ["true"]})
        jid = job["job"]["id"]
        with pytest.raises(Exception, match="403"):
            bob.job(jid)
        assert bob.jobs() == []

    def test_interactive_input_crosses_the_bus(self, fleet):
        c0 = _client(fleet.workers[0])
        job = c0._call(
            "POST", "/api/jobs",
            {"name": "cat", "argv": ["cat"], "kind": "interactive"},
        )
        jid = job["job"]["id"]
        time.sleep(0.1)
        c0.send_input(jid, "ping\n")
        c0.cancel_job(jid)
        _wait_done(c0, jid)
        out = c0.job_output(jid)
        assert "ping" in "".join(out["stdout"])

    def test_cancel_over_the_bus(self, fleet):
        c0 = _client(fleet.workers[0])
        job = c0._call(
            "POST", "/api/jobs", {"name": "sleep", "argv": ["sleep", "30"]}
        )
        jid = job["job"]["id"]
        assert c0.cancel_job(jid) is True
        assert _wait_done(c0, jid)["state"] == "cancelled"


class TestCachedReads:
    def test_status_polls_hit_the_worker_cache(self, fleet):
        worker = fleet.workers[0]
        client = _client(worker)
        client.cluster_status()
        misses_after_first = worker.cache.stats()["misses"]
        for _ in range(5):
            client.cluster_status()
        stats = worker.cache.stats()
        assert stats["misses"] == misses_after_first, "quiet cluster re-rendered"
        assert stats["hits"] >= 5

    def test_conditional_client_gets_304s(self, fleet):
        worker = fleet.workers[0]
        client = PortalClient(app=worker, conditional=True)
        client.login("alice", "secret123")
        s1 = client.cluster_status()
        s2 = client.cluster_status()
        assert s1 == s2
        assert worker.stats()["not_modified"] >= 1

    def test_status_cache_invalidated_by_cluster_version_change(self, fleet):
        worker = fleet.workers[0]
        client = _client(worker)
        before = client.cluster_status()
        job = client._call("POST", "/api/jobs", {"name": "j", "argv": ["true"]})
        _wait_done(client, job["job"]["id"])
        after = client.cluster_status()
        assert after["jobs"].get("completed", 0) > before["jobs"].get("completed", 0)

    def test_output_polls_self_version_via_fingerprint(self, fleet):
        worker = fleet.workers[1]
        client = _client(worker)
        job = client._call("POST", "/api/jobs", {"name": "j", "argv": ["echo", "x"]})
        jid = job["job"]["id"]
        _wait_done(client, jid)
        client.job_output(jid)
        misses = worker.cache.stats()["misses"]
        for _ in range(4):
            assert client.job_output(jid)["stdout"] == ["x"]
        assert worker.cache.stats()["misses"] == misses


class TestFrontendResilience:
    def test_backend_outage_maps_to_503_with_retry_after(self):
        # a fleet whose back-end service was never started: with nobody
        # serving, the RPC fails at once, not after the 10 s default timeout
        fleet = FrontendFleet(_make_distributor(), n_workers=1)
        fleet.users.add_user("alice", "secret123")
        worker = fleet.workers[0]
        client = PortalClient(app=worker)
        client.login("alice", "secret123")  # local: sessions live on the worker
        t0 = time.perf_counter()
        status, headers, _body = client._transport.request(
            "GET", "/api/cluster/status", b"",
            {"Authorization": f"Bearer {client._token}"},
        )
        assert time.perf_counter() - t0 < 0.5
        assert status == 503
        assert headers.get("Retry-After") == "1"

    def test_rpc_timeout_means_the_submit_never_ran(self):
        """A 503 from a busy back end created no job, so the retry makes one."""
        dist = _make_distributor()
        fleet = FrontendFleet(dist, n_workers=2, rpc_timeout_s=0.1).start()
        try:
            fleet.users.add_user("alice", "secret123")
            server = fleet.service.server
            status_handler = server._handlers["cluster.status"]
            entered, release = threading.Event(), threading.Event()

            def slow_status(params):
                entered.set()
                release.wait(5.0)
                return status_handler(params)

            server.register("cluster.status", slow_status)
            poller = _client(fleet.workers[0])
            holder = threading.Thread(target=poller.cluster_status)
            holder.start()
            assert entered.wait(5.0)
            submitter = _client(fleet.workers[1])
            spec = json.dumps({"name": "once", "argv": ["true"]}).encode()
            hdrs = {"Authorization": f"Bearer {submitter._token}",
                    "Content-Type": "application/json"}
            status, headers, _ = submitter._transport.request("POST", "/api/jobs", spec, hdrs)
            assert status == 503 and headers.get("Retry-After")
            assert dist.jobs == {}
            release.set()
            holder.join(5.0)
            assert not holder.is_alive()
            status, _, _ = submitter._transport.request("POST", "/api/jobs", spec, hdrs)
            assert status == 201
            assert [j.request.name for j in dist.jobs.values()] == ["once"]
        finally:
            release.set()
            fleet.stop()

    def test_admission_shields_the_worker(self):
        fleet = FrontendFleet(
            _make_distributor(),
            n_workers=1,
            admission_factory=lambda i: AdmissionController(
                rate_per_s=0.1, burst=2.0
            ),
        ).start()
        try:
            fleet.users.add_user("alice", "secret123")
            worker = fleet.workers[0]
            client = PortalClient(app=worker)
            client.login("alice", "secret123")
            statuses = []
            for _ in range(4):
                status, headers, _ = client._transport.request(
                    "GET", "/api/whoami", b"",
                    {"Authorization": f"Bearer {client._token}"},
                )
                statuses.append(status)
            assert 429 in statuses
            assert worker.stats()["admission"]["rejected_429"] > 0
        finally:
            fleet.stop()

    def test_worker_metrics_endpoint(self):
        from repro.telemetry.registry import MetricsRegistry

        fleet = FrontendFleet(_make_distributor(), n_workers=1).start()
        try:
            fleet.users.add_user("alice", "secret123")
            worker = FrontendPortal(
                ClusterProxy(fleet.bus, client_id="metrics-test"),
                fleet.users,
                SessionStore(),
                registry=MetricsRegistry(),
                worker_id="fx",
            )
            client = PortalClient(app=worker)
            client.login("alice", "secret123")
            client.cluster_status()
            status, _headers, body = client._transport.request(
                "GET", "/metrics", b"", {}
            )
            assert status == 200
            assert b"repro_portal_requests_total" in body
            assert b"repro_respcache_hits_total" in body
        finally:
            fleet.stop()

    def test_fleet_stats_aggregate(self, fleet):
        _client(fleet.workers[0])
        stats = fleet.stats()
        assert [w["worker"] for w in stats["workers"]] == ["fe0", "fe1", "fe2"]
        assert stats["bus"]["published"] >= 1  # the session replication event
        assert stats["service"]["reply_latency_s"] == 0.0

    def test_concurrent_clients_across_workers(self, fleet):
        """Many threads, every worker, no lost replies or cross-talk."""
        c0 = _client(fleet.workers[0])
        token = c0._token
        errors: list = []

        def hammer(worker):
            try:
                client = PortalClient(app=worker)
                client._token = token
                for _ in range(20):
                    assert client.whoami()["username"] == "alice"
                    client.cluster_status()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,))
            for w in fleet.workers for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20.0)
        assert not errors
