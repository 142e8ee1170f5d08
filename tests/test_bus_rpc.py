"""The message bus, RPC layer, and cluster back-end service."""

from __future__ import annotations

import threading
import time

import pytest

from repro._errors import (
    AuthorizationError,
    BusError,
    JobError,
    RpcRemoteError,
    RpcTimeout,
)
from repro.bus import (
    ClusterBackendService,
    ClusterProxy,
    InMemoryBackend,
    MessageBus,
    RpcClient,
    RpcServer,
    decode_wire,
    encode_wire,
)
from repro.cluster.backends import SubprocessBackend
from repro.cluster.distributor import JobDistributor
from repro.cluster.grid import Grid
from repro.cluster.job import JobKind, JobRequest, RetryPolicy
from repro.cluster.spec import ClusterSpec


class TestBusCore:
    def test_send_receive_fifo(self):
        bus = MessageBus()
        bus.send("q", "a")
        bus.send("q", "b")
        assert bus.receive("q", 0.1) == "a"
        assert bus.receive("q", 0.1) == "b"
        assert bus.receive("q", 0.01) is None

    def test_depth_and_counters(self):
        bus = MessageBus()
        bus.send("q", "x")
        assert bus.depth("q") == 1
        bus.receive("q", 0.1)
        assert bus.depth("q") == 0
        stats = bus.stats()
        assert stats["sent"] == 1 and stats["delivered"] == 1
        assert stats["backend"] == "memory"

    def test_blocking_receive_wakes_on_send(self):
        bus = MessageBus()
        got = []
        t = threading.Thread(target=lambda: got.append(bus.receive("q", 2.0)))
        t.start()
        time.sleep(0.02)
        bus.send("q", "wake")
        t.join(2.0)
        assert got == ["wake"]

    def test_publish_fans_out_to_all_subscribers(self):
        bus = MessageBus()
        seen: list = []
        bus.subscribe("t", lambda p: seen.append(("a", p)))
        bus.subscribe("t", lambda p: seen.append(("b", p)))
        assert bus.publish("t", "hello") == 2
        assert seen == [("a", "hello"), ("b", "hello")]
        assert bus.publish("empty-topic", "x") == 0

    def test_empty_queue_name_rejected(self):
        with pytest.raises(BusError):
            MessageBus().send("", "x")

    def test_only_the_memory_backend_is_named(self):
        with pytest.raises(BusError, match="unknown bus backend"):
            MessageBus("redis")

    def test_backend_object_is_used_as_given(self):
        backend = InMemoryBackend()
        bus = MessageBus(backend)
        bus.send("q", "x")
        assert bus.backend is backend and backend.depth("q") == 1


class TestWireCodec:
    def test_roundtrip(self):
        payload = {"a": [1, 2], "b": "text", "c": None}
        assert decode_wire(encode_wire(payload)) == payload

    def test_unserialisable_payload_rejected(self):
        with pytest.raises(BusError, match="not wire-safe"):
            encode_wire({"f": lambda: None})

    def test_malformed_wire_rejected(self):
        with pytest.raises(BusError, match="malformed"):
            decode_wire("{not json")


class TestRpc:
    def _server(self, bus):
        server = RpcServer(bus, "svc")
        server.register("echo", lambda p: p)
        server.register("boom", lambda p: (_ for _ in ()).throw(ValueError("bad")))
        return server

    def test_request_reply_roundtrip(self):
        bus = MessageBus()
        server = self._server(bus)
        client = RpcClient(bus, "svc")
        done = threading.Thread(target=server.serve_step, args=(1.0,))
        done.start()
        assert client.call("echo", {"x": 1}, timeout=2.0) == {"x": 1}
        done.join()
        assert server.requests_served == 1

    def test_remote_error_carries_type(self):
        bus = MessageBus()
        server = self._server(bus)
        server.start()
        try:
            client = RpcClient(bus, "svc")
            with pytest.raises(RpcRemoteError) as exc_info:
                client.call("boom", timeout=2.0)
            assert exc_info.value.remote_type == "ValueError"
            with pytest.raises(RpcRemoteError) as exc_info:
                client.call("nope", timeout=2.0)
            assert exc_info.value.remote_type == "BusError"
        finally:
            server.stop()
        assert server.errors_returned == 2

    def test_timeout_when_nobody_serves(self):
        bus = MessageBus()
        client = RpcClient(bus, "svc")
        with pytest.raises(RpcTimeout):
            client.call("echo", timeout=0.05)
        assert client.timeouts == 1

    def test_stale_reply_from_timed_out_call_is_dropped(self):
        """A late reply to call N must not satisfy call N+1."""
        bus = MessageBus()
        client = RpcClient(bus, "svc")
        with pytest.raises(RpcTimeout):
            client.call("echo", {"n": 1}, timeout=0.05)
        # the late reply for corr=1 lands just before call 2 looks
        bus.send(client.reply_queue, encode_wire({"corr": 1, "ok": "stale"}))
        server = self._server(bus)
        server.start()
        try:
            assert client.call("echo", {"n": 2}, timeout=2.0) == {"n": 2}
        finally:
            server.stop()

    def test_clients_have_private_reply_queues(self):
        bus = MessageBus()
        a, b = RpcClient(bus, "svc"), RpcClient(bus, "svc")
        assert a.reply_queue != b.reply_queue

    def test_double_start_rejected(self):
        bus = MessageBus()
        server = self._server(bus)
        server.start()
        try:
            with pytest.raises(BusError):
                server.start()
        finally:
            server.stop()


class TestJobRequestWire:
    def test_roundtrip_preserves_everything(self):
        req = JobRequest(
            name="lab3",
            owner="alice",
            kind=JobKind.PARALLEL,
            argv=["./a.out", "--n", "4"],
            n_tasks=4,
            cores_per_task=2,
            memory_mb_per_task=256,
            priority=3,
            timeout_s=30.0,
            wallclock_timeout_s=120.0,
            est_runtime_s=10.0,
            after=("job-000001",),
            after_ok=True,
            stdin_data="5\n",
            env={"OMP_NUM_THREADS": "2"},
            retry=RetryPolicy(max_attempts=2, retry_on=frozenset({"failed"})),
        )
        back = JobRequest.from_wire(req.to_wire())
        assert back == req

    def test_callable_jobs_cannot_cross_the_bus(self):
        req = JobRequest(name="f", callable=lambda: None, kind=JobKind.SEQUENTIAL)
        with pytest.raises(JobError, match="cannot cross the bus"):
            req.to_wire()

    def test_from_wire_revalidates(self):
        wire = JobRequest(name="ok", argv=["true"]).to_wire()
        wire["n_tasks"] = 0
        with pytest.raises(JobError):
            JobRequest.from_wire(wire)


@pytest.fixture
def backend_service():
    grid = Grid(ClusterSpec.small(segments=2, slaves=2, cores=2))
    distributor = JobDistributor(grid, SubprocessBackend())
    bus = MessageBus()
    service = ClusterBackendService(bus, distributor)
    service.start()
    yield bus, service, distributor
    service.stop()


class TestClusterBackendService:
    def _wait(self, proxy, owner, job_id, timeout=10.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            desc = proxy.describe(owner, job_id)
            if desc["state"] in ("completed", "failed", "cancelled", "timeout"):
                return desc
            time.sleep(0.02)
        raise AssertionError(f"job {job_id} did not finish")

    def test_submit_poll_output_over_the_bus(self, backend_service):
        bus, _service, _dist = backend_service
        proxy = ClusterProxy(bus)
        desc = proxy.submit(JobRequest(name="hi", owner="alice", argv=["echo", "hi"]))
        final = self._wait(proxy, "alice", desc["id"])
        assert final["state"] == "completed"
        out = proxy.output_since("alice", desc["id"])
        assert out["stdout"] == ["hi"]
        fp = proxy.output_fingerprint("alice", desc["id"])
        assert fp[0] == "completed"

    def test_ownership_enforced_at_the_service(self, backend_service):
        bus, _service, _dist = backend_service
        proxy = ClusterProxy(bus)
        desc = proxy.submit(JobRequest(name="hi", owner="alice", argv=["echo", "hi"]))
        with pytest.raises(AuthorizationError):
            proxy.describe("mallory", desc["id"])
        # view_all (instructor capability) bypasses
        assert proxy.describe("mallory", desc["id"], view_all=True)["id"] == desc["id"]

    def test_submissions_must_carry_an_owner(self, backend_service):
        bus, _service, _dist = backend_service
        proxy = ClusterProxy(bus)
        with pytest.raises(JobError, match="owner"):
            proxy.submit(JobRequest(name="anon", argv=["true"]))

    def test_control_state_tracks_distributor_version(self, backend_service):
        bus, _service, dist = backend_service
        proxy = ClusterProxy(bus)
        v0, free0 = proxy.control_state()
        assert (v0, free0) == (dist.version, dist.grid.cores_free)
        proxy.submit(JobRequest(name="hi", owner="alice", argv=["echo", "hi"]))
        v1, _ = proxy.control_state()
        assert v1 > v0

    def test_list_jobs_filters_by_owner(self, backend_service):
        bus, _service, _dist = backend_service
        proxy = ClusterProxy(bus)
        proxy.submit(JobRequest(name="a", owner="alice", argv=["true"]))
        proxy.submit(JobRequest(name="b", owner="bob", argv=["true"]))
        assert {j["owner"] for j in proxy.list_jobs("alice")} == {"alice"}
        assert len(proxy.list_jobs("alice", view_all=True)) == 2

    def test_service_stats_exposed(self, backend_service):
        bus, _service, _dist = backend_service
        proxy = ClusterProxy(bus)
        proxy.control_state()
        stats = proxy.service_stats()
        assert stats["requests_served"] >= 1
        assert stats["bus"]["backend"] == "memory"

    def test_remote_errors_map_to_local_classes(self, backend_service):
        bus, _service, _dist = backend_service
        proxy = ClusterProxy(bus)
        with pytest.raises(JobError):
            proxy.describe("alice", "job-999999")


class TestReplyLatencyModel:
    def test_replies_are_delayed_not_dropped(self):
        grid = Grid(ClusterSpec.small(segments=2, slaves=2, cores=2))
        distributor = JobDistributor(grid, SubprocessBackend())
        bus = MessageBus()
        service = ClusterBackendService(bus, distributor, reply_latency_s=0.05)
        service.start()
        try:
            proxy = ClusterProxy(bus)
            t0 = time.perf_counter()
            proxy.control_state()
            dt = time.perf_counter() - t0
            assert dt >= 0.045, f"latency model bypassed: RTT {dt * 1e3:.1f} ms"
        finally:
            service.stop()

    def test_n_clients_overlap_their_waits(self):
        """The scale-out premise: N waiters finish in ~1 RTT, not N RTTs."""
        grid = Grid(ClusterSpec.small(segments=2, slaves=2, cores=2))
        distributor = JobDistributor(grid, SubprocessBackend())
        bus = MessageBus()
        service = ClusterBackendService(bus, distributor, reply_latency_s=0.08)
        service.start()
        try:
            n = 4
            done = []

            def one():
                proxy = ClusterProxy(bus)
                proxy.control_state()
                done.append(1)

            threads = [threading.Thread(target=one) for _ in range(n)]
            t0 = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(5.0)
            dt = time.perf_counter() - t0
            assert len(done) == n
            assert dt < n * 0.08, (
                f"{n} overlapped RTTs took {dt * 1e3:.0f} ms — waits serialised"
            )
        finally:
            service.stop()
