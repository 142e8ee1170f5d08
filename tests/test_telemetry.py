"""Telemetry subsystem: registry, histograms, tracing, export, wiring.

Covers the metric primitives (bucket boundary semantics, snapshot
merging, label plumbing), the virtual-vs-wall clock contract under the
DES backend, span parent/child integrity across a retried job, the
``GET /metrics`` endpoint (content type, cache bypass), and the
NullRegistry off-switch.
"""

from __future__ import annotations

import io
import json
import math

import pytest

from repro.cluster import (
    CallableBackend,
    ClusterSpec,
    Grid,
    JobDistributor,
    JobRequest,
    JobState,
    RetryPolicy,
    SimulatedBackend,
)
from repro.desim import Simulator
from repro.portal.app import make_default_app
from repro.portal.client import PortalClient
from repro.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    EventLog,
    MetricsRegistry,
    NullRegistry,
    Span,
    default_buckets,
    render_json,
    render_prometheus,
)
from repro.telemetry.instruments import DISPATCH_KEYS, FAULT_KINDS
from repro.telemetry.registry import Histogram, HistogramSnapshot


# ---------------------------------------------------------------------------
# registry primitives
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_counts_exact_ints(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_hits_total", "hits")
        c.inc()
        c.inc(3)
        assert c.value == 4
        assert isinstance(c.value, int)  # stats() adapters promise exact ints

    def test_counter_set_fn_reads_at_snapshot_time(self):
        reg = MetricsRegistry()
        backing = {"n": 0}
        reg.counter("repro_test_derived_total").set_fn(lambda: backing["n"])
        backing["n"] = 7
        ((_, value),) = reg.snapshot()["repro_test_derived_total"]["series"]
        assert value == 7

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        g = reg.gauge("repro_test_depth")
        g.set(5.0)
        g.inc(2)
        g.dec()
        assert g.value == 6.0

    def test_labelled_children_are_cached_and_coerced(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_test_by_state_total", labels=("state",))
        a = fam.labels("done")
        assert fam.labels("done") is a
        fam.labels(200).inc()  # non-str label values coerce to str
        assert fam.labels("200").value == 1

    def test_label_arity_mismatch_raises(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_test_pairs_total", labels=("a", "b"))
        with pytest.raises(ValueError):
            fam.labels("only-one")

    def test_reregistration_is_idempotent_but_typed(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_test_once_total")
        assert reg.counter("repro_test_once_total") is fam
        with pytest.raises(ValueError):
            reg.gauge("repro_test_once_total")  # kind conflict
        with pytest.raises(ValueError):
            reg.counter("repro_test_once_total", labels=("x",))  # label conflict

    def test_null_registry_is_inert(self):
        reg = NullRegistry()
        assert reg.enabled is False
        c = reg.counter("anything")
        c.inc()
        c.labels("x").observe(1.0)  # every op is a no-op on the shared child
        assert c.value == 0
        assert reg.snapshot() == {}


# ---------------------------------------------------------------------------
# histogram semantics
# ---------------------------------------------------------------------------
class TestHistogram:
    def test_boundary_value_lands_in_its_le_bucket(self):
        # Prometheus buckets are le-inclusive: an observation exactly on a
        # bound belongs to that bound's bucket, not the next one up.
        h = Histogram(default_buckets())
        h.observe(1.0)  # 1.0 == 10**0 is one of the bounds
        for le, cumulative in h.value.cumulative():
            assert cumulative == (1 if le >= 1.0 else 0)

    def test_extremes_hit_first_and_overflow_buckets(self):
        bounds = default_buckets()
        h = Histogram(bounds)
        h.observe(1e-9)  # below the smallest bound (1e-6)
        h.observe(1e9)  # above the largest bound (1e6) -> +Inf bucket
        snap = h.value
        assert snap.counts[0] == 1
        assert snap.counts[-1] == 1
        assert snap.count == 2
        assert snap.sum == pytest.approx(1e9 + 1e-9)
        # +Inf cumulative always equals the total count
        assert snap.cumulative()[-1] == (math.inf, 2)

    def test_merge_adds_counts_and_sums(self):
        a, b = Histogram(default_buckets()), Histogram(default_buckets())
        for v in (0.001, 0.01, 5.0):
            a.observe(v)
        b.observe(0.01)
        merged = a.value.merge(b.value)
        assert merged.count == 4
        assert merged.sum == pytest.approx(5.021)
        # the 0.01 bucket saw one observation from each side
        by_le = dict(merged.cumulative())
        assert by_le[0.01] - by_le[0.001] == 2

    def test_merge_rejects_mismatched_bounds(self):
        a = HistogramSnapshot((1.0,), (0, 0), 0.0, 0)
        b = HistogramSnapshot((2.0,), (0, 0), 0.0, 0)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_quantile_is_bucket_resolution(self):
        h = Histogram((1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 5.0, 50.0):
            h.observe(v)
        snap = h.value
        assert snap.quantile(0.25) == 1.0
        assert snap.quantile(0.75) == 10.0
        assert snap.quantile(1.0) == 100.0
        assert Histogram((1.0,)).value.quantile(0.5) is None
        with pytest.raises(ValueError):
            snap.quantile(1.5)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------
class TestExport:
    def test_prometheus_text_counters_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_reqs_total", "requests", labels=("route",)).labels(
            "/jobs"
        ).inc(3)
        text = render_prometheus(reg.snapshot())
        assert "# HELP repro_test_reqs_total requests\n" in text
        assert "# TYPE repro_test_reqs_total counter\n" in text
        assert 'repro_test_reqs_total{route="/jobs"} 3\n' in text

    def test_prometheus_text_histogram_lines(self):
        reg = MetricsRegistry()
        reg.histogram("repro_test_lat_seconds", buckets=(0.1, 1.0)).observe(0.5)
        text = render_prometheus(reg.snapshot())
        assert 'repro_test_lat_seconds_bucket{le="0.1"} 0\n' in text
        assert 'repro_test_lat_seconds_bucket{le="1"} 1\n' in text
        assert 'repro_test_lat_seconds_bucket{le="+Inf"} 1\n' in text
        assert "repro_test_lat_seconds_sum 0.5\n" in text
        assert "repro_test_lat_seconds_count 1\n" in text

    def test_prometheus_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_esc_total", labels=("v",)).labels('a"b\\c\nd').inc()
        text = render_prometheus(reg.snapshot())
        assert 'v="a\\"b\\\\c\\nd"' in text

    def test_json_render_is_serialisable(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_c_total").inc(2)
        reg.histogram("repro_test_h_seconds", buckets=(1.0,)).observe(0.5)
        data = json.loads(json.dumps(render_json(reg.snapshot())))
        assert data["repro_test_c_total"]["series"][0]["value"] == 2
        hist = data["repro_test_h_seconds"]["series"][0]["histogram"]
        assert hist["count"] == 1
        assert hist["buckets"][-1]["le"] == "+Inf"


# ---------------------------------------------------------------------------
# tracing + events
# ---------------------------------------------------------------------------
class TestTracerAndEvents:
    def test_span_tree_and_durations(self):
        root = Span("job", 0.0)
        child = root.child("attempt-1", 1.0).set(node="n0")
        assert child.duration is None  # still open
        child.finish(3.0)
        root.finish(3.5)
        d = root.as_dict()
        assert d["duration_s"] == pytest.approx(3.5)
        assert d["children"][0]["name"] == "attempt-1"
        assert d["children"][0]["attrs"] == {"node": "n0"}
        assert d["children"][0]["duration_s"] == pytest.approx(2.0)

    def test_event_log_ring_and_filter(self):
        log = EventLog(lambda: 0.0, capacity=3)
        for i in range(5):
            log.emit("info", f"e{i}")
        log.emit("error", "boom")
        events = log.snapshot()
        assert len(events) == 3  # ring bound: oldest dropped
        assert events[-1].name == "boom"
        assert [e.name for e in log.snapshot(min_severity="error")] == ["boom"]
        with pytest.raises(ValueError):
            log.emit("loud", "nope")


# ---------------------------------------------------------------------------
# distributor wiring: virtual clock, span lineage, stats adapters
# ---------------------------------------------------------------------------
def des_distributor(segments=2, slaves=4, cores=2, **kwargs):
    sim = Simulator()
    grid = Grid(ClusterSpec.small(segments=segments, slaves=slaves, cores=cores))
    dist = JobDistributor(
        grid, SimulatedBackend(sim), now_fn=lambda: sim.now, **kwargs
    )
    return sim, dist


class TestDistributorTelemetry:
    def test_queue_waits_are_virtual_seconds(self):
        # 32 one-core jobs on 16 cores: half start at t=0, half wait
        # exactly 1.0 *virtual* seconds.  Wall time is irrelevant — the
        # telemetry clock is the distributor's now_fn.
        sim, dist = des_distributor()
        jobs = [
            dist.submit(JobRequest(name=f"j{i}", sim_duration=1.0, cores_per_task=1))
            for i in range(32)
        ]
        sim.run()
        assert all(j.state is JobState.COMPLETED for j in jobs)
        snap = dist.telemetry.h_queue_wait.value
        assert snap.count == 32
        assert snap.sum == pytest.approx(16.0)
        # run times are virtual too: 32 attempts of exactly 1.0s
        run = dist.telemetry.h_run.value
        assert run.count == 32
        assert run.sum == pytest.approx(32.0)

    def test_spans_are_stamped_with_virtual_time(self):
        # one 2-core node: the second job waits for the first to finish
        sim, dist = des_distributor(segments=1, slaves=1, cores=2)
        jobs = [
            dist.submit(JobRequest(name=f"j{i}", sim_duration=2.0, cores_per_task=2))
            for i in range(2)
        ]
        sim.run()
        second = dist.telemetry.job_trace(jobs[1])
        assert second.start == 0.0  # submitted at virtual t=0
        assert second.end == pytest.approx(4.0)  # waited 2.0, ran 2.0
        (wait, attempt) = second.children
        assert wait.name == "queue_wait"
        assert wait.duration == pytest.approx(2.0)
        assert attempt.name == "attempt-1"
        assert attempt.duration == pytest.approx(2.0)
        assert attempt.attrs["outcome"] == "completed"

    def test_retried_job_has_sibling_attempt_spans(self, small_grid):
        calls = {"n": 0}

        def flaky(job):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise RuntimeError(f"transient #{calls['n']}")
            return "ok"

        dist = JobDistributor(
            small_grid,
            CallableBackend(),
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01, jitter=0.0),
        )
        job = dist.submit(JobRequest(name="flaky", callable=flaky))
        assert dist.wait_all(20), dist.stats()
        assert job.state is JobState.COMPLETED

        root = dist.telemetry.job_trace(job)
        assert root.name == "job"
        assert root.end is not None and root.attrs["state"] == "completed"
        # one root, with per-attempt spans as *siblings* under it
        attempts = [s for s in root.children if s.name.startswith("attempt-")]
        assert [s.name for s in attempts] == ["attempt-1", "attempt-2", "attempt-3"]
        assert [s.attrs["outcome"] for s in attempts] == [
            "failed",
            "failed",
            "completed",
        ]
        assert all(s.end is not None for s in attempts)
        waits = [s for s in root.children if s.name == "queue_wait"]
        assert len(waits) == 3  # initial wait + one backoff interval per retry
        # the metrics side agrees with the trace side
        assert dist.stats()["faults"]["retries"] == 2
        fam = dist.telemetry.registry.snapshot()["repro_faults_events_total"]
        assert (("retries",), 2) in fam["series"]

    def test_stats_adapters_preserve_legacy_shapes(self):
        sim, dist = des_distributor()
        for i in range(4):
            dist.submit(JobRequest(name=f"j{i}", sim_duration=1.0))
        sim.run()
        stats = dist.stats()
        assert tuple(stats["dispatch"]) == DISPATCH_KEYS
        assert tuple(stats["faults"]) == FAULT_KINDS
        assert stats["dispatch"]["jobs_started"] == 4
        assert all(isinstance(v, int) for v in stats["dispatch"].values())
        assert all(isinstance(v, int) for v in stats["faults"].values())

    def test_null_registry_disables_tracing_but_not_jobs(self):
        sim, dist = des_distributor(registry=NullRegistry())
        jobs = [
            dist.submit(JobRequest(name=f"j{i}", sim_duration=1.0)) for i in range(3)
        ]
        sim.run()
        assert all(j.state is JobState.COMPLETED for j in jobs)
        assert dist.telemetry.on is False
        assert dist.telemetry.registry.snapshot() == {}
        # the legacy plain-int counters keep counting regardless
        assert dist.stats()["dispatch"]["jobs_started"] == 3
        # traces are derived from the job object, so they survive too
        trace = dist.telemetry.job_trace(jobs[0])
        assert [c.name for c in trace.children] == ["queue_wait", "attempt-1"]


# ---------------------------------------------------------------------------
# portal endpoints
# ---------------------------------------------------------------------------
def wsgi_get(app, path, token="", extra=None):
    """Raw WSGI GET returning (status, headers dict, body bytes)."""
    environ = {
        "REQUEST_METHOD": "GET",
        "PATH_INFO": path.split("?")[0],
        "QUERY_STRING": path.partition("?")[2],
        "CONTENT_LENGTH": "0",
        "wsgi.input": io.BytesIO(b""),
    }
    if token:
        environ["HTTP_AUTHORIZATION"] = f"Bearer {token}"
    if extra:
        environ.update(extra)
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split(" ", 1)[0])
        captured["headers"] = dict(headers)

    body = b"".join(app(environ, start_response))
    return captured["status"], captured["headers"], body


@pytest.fixture
def portal(tmp_path):
    app = make_default_app(str(tmp_path / "homes"), cluster_spec=ClusterSpec.small())
    client = PortalClient(app=app)
    client.login("admin", "admin-pass")
    return app, client


def _scrape_value(text: str, metric: str) -> float:
    for line in text.splitlines():
        if line.startswith(metric + " ") or line.startswith(metric + "{"):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"{metric} not found in scrape")


class TestMetricsEndpoint:
    def test_scrape_serves_prometheus_text(self, portal):
        app, _ = portal
        status, headers, body = wsgi_get(app, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode()
        # one unified snapshot: dispatch, faults, health, cache, portal
        for family in (
            "repro_dispatch_requests_total",
            "repro_faults_events_total",
            "repro_health_up_fraction",
            "repro_respcache_hits_total",
            "repro_portal_requests_total",
        ):
            assert f"# TYPE {family}" in text, family

    def test_scrape_bypasses_response_cache(self, portal):
        app, _ = portal
        _, headers, body = wsgi_get(app, "/metrics")
        # not a conditional resource: no validator, nothing cached
        assert "ETag" not in headers
        first = _scrape_value(body.decode(), "repro_portal_requests_total")
        _, _, body = wsgi_get(app, "/metrics")
        second = _scrape_value(body.decode(), "repro_portal_requests_total")
        assert second == first + 1  # fresh counters every scrape

    def test_scrape_json_format(self, portal):
        app, _ = portal
        status, headers, body = wsgi_get(app, "/metrics?format=json")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        data = json.loads(body)
        assert "repro_portal_requests_total" in data

    def test_request_latency_labelled_by_route(self, portal):
        app, client = portal
        wsgi_get(app, "/metrics")
        _, _, body = wsgi_get(app, "/metrics")
        text = body.decode()
        assert 'repro_portal_request_seconds_count{route="/metrics"}' in text
        assert 'repro_portal_responses_total{status="200"}' in text


class TestTraceEndpoint:
    def test_trace_page_shows_span_tree(self, portal):
        app, client = portal
        dist = app.proxy.distributor
        job = dist.submit(
            JobRequest(name="traced", owner="admin", argv=["python3", "-c", "pass"])
        )
        assert dist.wait_all(30)
        token = client._token

        status, headers, body = wsgi_get(app, f"/debug/trace/{job.id}", token)
        assert status == 200
        assert "text/html" in headers["Content-Type"]
        page = body.decode()
        assert "job" in page and "attempt-1" in page

        status, _, body = wsgi_get(
            app, f"/debug/trace/{job.id}?format=json", token
        )
        assert status == 200
        trace = json.loads(body)["trace"]
        assert trace["name"] == "job"
        assert [c["name"] for c in trace["children"]] == ["queue_wait", "attempt-1"]

    def test_trace_404_when_unknown(self, portal):
        app, client = portal
        status, _, _ = wsgi_get(app, "/debug/trace/nope", client._token)
        assert status == 404

    def test_job_page_links_to_trace(self, portal):
        app, client = portal
        dist = app.proxy.distributor
        job = dist.submit(
            JobRequest(name="linked", owner="admin", argv=["python3", "-c", "pass"])
        )
        assert dist.wait_all(30)
        status, _, body = wsgi_get(app, f"/jobs/{job.id}", client._token)
        assert status == 200
        assert f"/debug/trace/{job.id}" in body.decode()


class TestRecentRequestsEndpoint:
    def test_admin_sees_the_newest_50_requests_newest_last(self, portal):
        app, client = portal
        token = client._token
        for i in range(60):
            assert wsgi_get(app, f"/api/jobs/none-{i}", token)[0] == 404
        _, headers, _ = wsgi_get(app, "/api/cluster/status", token)
        etag = {"HTTP_IF_NONE_MATCH": headers["ETag"]}
        assert wsgi_get(app, "/api/cluster/status", token, etag)[0] == 304

        status, _, body = wsgi_get(app, "/debug/requests", token)
        assert status == 200
        rows = json.loads(body)["requests"]
        assert len(rows) == 50
        ids = [int(row["id"].removeprefix("req-")) for row in rows]
        assert ids == list(range(ids[0], ids[0] + 50))  # oldest first, none skipped
        paths = [row["trace"]["attrs"]["path"] for row in rows]
        # the 51st-newest request is gone
        assert paths[0] == "/api/jobs/none-12" and "/api/jobs/none-11" not in paths
        assert paths[-2:] == ["/api/cluster/status"] * 2
        for row in rows:
            trace = row["trace"]
            assert trace["name"] == "request"
            assert trace["duration_s"] >= 0
            assert trace["end"] == pytest.approx(trace["start"] + trace["duration_s"])
        assert rows[0]["trace"]["attrs"] == {
            "method": "GET", "path": "/api/jobs/none-12",
            "route": "/api/jobs/<job_id>", "status": 404,
        }
        miss, hit = (row["trace"]["attrs"] for row in rows[-2:])
        assert miss == {"method": "GET", "path": "/api/cluster/status", "cache": "miss",
                        "route": "/api/cluster/status", "status": 200}
        assert hit == {**miss, "cache": "hit", "status": 304}

    def test_a_student_is_refused(self, portal):
        app, client = portal
        client.create_user("stu", "student-pass")
        student = PortalClient(app=app)
        student.login("stu", "student-pass")
        assert wsgi_get(app, "/debug/requests", student._token)[0] == 403
