"""One portal, two transports: the same routes answer the same way.

Every test here runs against a monolith (``local``: ``make_default_app``,
whose port is an in-process ``LocalCluster``) and a scale-out worker
(``bus``: a ``FrontendFleet`` worker, whose port is a ``ClusterProxy``).
Jobs are seeded straight into each deployment's distributor, so the
seeding itself crosses neither transport.
"""

from __future__ import annotations

import ast
import inspect
import json
from pathlib import Path

import pytest

from repro.bus import ClusterProxy, LocalCluster
from repro.cluster.backends import SubprocessBackend
from repro.cluster.distributor import JobDistributor
from repro.cluster.grid import Grid
from repro.cluster.job import JobRequest
from repro.cluster.spec import ClusterSpec
from repro.portal import PortalApp, PortalClient, make_default_app
from repro.portal.frontend import FrontendFleet

#: fields that differ between any two runs: wall-clock times, fresh tokens
_VOLATILE = {"runtime_s", "wait_s", "started_at", "finished_at", "token"}


class Deployment:
    """One portal app, its distributor and its account store."""

    def __init__(self, kind: str, app: PortalApp, dist: JobDistributor, users) -> None:
        self.kind = kind
        self.app = app
        self.dist = dist
        users.add_user("alice", "alice-pass")
        users.add_user("bob", "bob-pass")
        self.transport = PortalClient(app=app)._transport
        self.jobs: dict[str, str] = {}  # seed name -> job id

    def seed(self, name: str, owner: str, argv: list[str]) -> str:
        """Submit straight to the distributor and wait until it finishes,
        so every job starts on an idle grid and lands on the same node."""
        job = self.dist.submit(JobRequest(name=name, owner=owner, argv=argv))
        assert self.dist.wait_all(timeout=10.0)
        self.jobs[name] = job.id
        return job.id

    def login(self, username: str, password: str) -> str:
        return self.call("POST", "/api/login", {"username": username, "password": password})[2][
            "token"
        ]

    def call(self, method: str, path: str, body=None, token: str | None = None, headers=None):
        """``(status, headers, parsed body)``; ``{name}`` in ``path`` is a seeded job."""
        hdrs = dict(headers or {})
        if token is not None:
            hdrs["Authorization"] = f"Bearer {token}"
        raw = b""
        if body is not None:
            raw = body if isinstance(body, bytes) else json.dumps(body).encode()
            hdrs.setdefault("Content-Type", "application/json")
        status, out_headers, payload = self.transport.request(
            method, path.format(**self.jobs), raw, hdrs
        )
        try:
            parsed = json.loads(payload) if payload else None
        except ValueError:
            parsed = payload
        return status, out_headers, parsed

    def normalised(self, body):
        """``body`` with job ids, times, tokens and the worker id masked."""
        text = json.dumps(body, sort_keys=True)
        for name, job_id in self.jobs.items():
            text = text.replace(job_id, f"<{name}>")
        return _mask(json.loads(text))


def _mask(value):
    if isinstance(value, dict):
        return {
            k: "<volatile>" if k in _VOLATILE and v is not None else _mask(v)
            for k, v in value.items()
            if k != "worker"
        }
    if isinstance(value, list):
        return [_mask(v) for v in value]
    return value


def _deploy(kind: str, tmp_path: Path):
    if kind == "local":
        app = make_default_app(str(tmp_path / "homes"), cluster_spec=ClusterSpec.small())
        return Deployment(kind, app, app.proxy.distributor, app.users), None
    dist = JobDistributor(Grid(ClusterSpec.small()), SubprocessBackend())
    fleet = FrontendFleet(dist, n_workers=1).start()
    fleet.users.add_user("admin", "admin-pass", role="admin")
    return Deployment(kind, fleet.workers[0], dist, fleet.users), fleet


@pytest.fixture(params=["local", "bus"])
def deployment(request, tmp_path):
    dep, fleet = _deploy(request.param, tmp_path)
    yield dep
    if fleet is not None:
        fleet.stop()


@pytest.fixture
def both(tmp_path):
    deps = [_deploy(kind, tmp_path / kind) for kind in ("local", "bus")]
    for dep, _ in deps:
        dep.seed("a1", "alice", ["echo", "hello"])
        dep.seed("b1", "bob", ["echo", "bob's"])
    yield [dep for dep, _ in deps]
    for _, fleet in deps:
        if fleet is not None:
            fleet.stop()


#: (who, method, path, body) — every route both deployments serve
_SHARED = [
    ("alice", "GET", "/api/whoami", None),
    ("alice", "GET", "/api/jobs", None),
    ("admin", "GET", "/api/jobs", None),
    ("alice", "GET", "/api/jobs/{a1}", None),
    ("alice", "GET", "/api/jobs/{a1}/output", None),
    ("alice", "GET", "/api/jobs/{a1}/output?since=1", None),
    ("alice", "GET", "/api/jobs/{a1}/output?since=x", None),
    ("alice", "GET", "/api/jobs/{b1}", None),  # 403: bob's job
    ("alice", "GET", "/api/jobs/{b1}/output", None),
    ("admin", "GET", "/api/jobs/{b1}", None),  # view_all
    ("alice", "GET", "/api/jobs/job-999999", None),  # 404
    (None, "GET", "/api/jobs/{a1}", None),  # 401
    (None, "GET", "/api/whoami", None),
    ("alice", "POST", "/api/jobs/{a1}/input", {"text": "late\n"}),  # finished
    ("alice", "POST", "/api/jobs/{b1}/cancel", None),
    ("alice", "POST", "/api/jobs/{a1}/cancel", None),
    ("alice", "GET", "/api/fleet", None),
    ("alice", "GET", "/debug/fleet", None),  # 403: admin only
    ("admin", "GET", "/debug/fleet", None),
    ("alice", "POST", "/api/users", {"username": "eve", "password": "eve-pass"}),
    ("alice", "POST", "/api/password", {"old": "wrong", "new": "whatever1"}),
    ("alice", "GET", "/api/no/such/route", None),
]


class TestSameAnswers:
    def test_shared_routes_answer_alike(self, both):
        answers = []
        for dep in both:
            tokens = {
                "alice": dep.login("alice", "alice-pass"),
                "admin": dep.login("admin", "admin-pass"),
                None: None,
            }
            answers.append([
                (status, dep.normalised(body))
                for who, method, path, body in _SHARED
                for status, _, body in [dep.call(method, path, body, tokens[who])]
            ])
        local, bus = answers
        for case, a, b in zip(_SHARED, local, bus):
            assert a == b, f"{case}: local {a} != bus {b}"
        statuses = {case[2]: a[0] for case, a in zip(_SHARED, local)}
        assert statuses["/api/jobs/job-999999"] == 404
        assert 403 in statuses.values() and 401 in statuses.values()

    def test_login_answers_alike(self, both):
        bodies = []
        for dep in both:
            status, headers, body = dep.call(
                "POST", "/api/login", {"username": "alice", "password": "alice-pass"}
            )
            assert status == 200 and "portal_session=" in headers["Set-Cookie"]
            bodies.append(dep.normalised(body))
        assert bodies[0] == bodies[1]
        assert bodies[0]["token"] == "<volatile>"

    def test_status_and_metrics_have_the_same_shape(self, both):
        shapes = []
        for dep in both:
            token = dep.login("alice", "alice-pass")
            status, _, cluster = dep.call("GET", "/api/cluster/status", token=token)
            assert status == 200
            m_status, m_headers, _ = dep.call("GET", "/metrics")
            assert m_status == 200
            shapes.append((sorted(cluster), m_headers["Content-Type"]))
        assert shapes[0] == shapes[1]

    def test_only_the_worker_names_itself(self, both):
        local, bus = both
        token = local.login("alice", "alice-pass")
        assert "worker" not in local.call("GET", "/api/whoami", token=token)[2]
        token = bus.login("alice", "alice-pass")
        assert bus.call("GET", "/api/whoami", token=token)[2]["worker"] == "fe0"


class TestEachTransport:
    @pytest.mark.parametrize(
        "path", ["/api/cluster/status", "/api/jobs", "/api/jobs/{a1}", "/api/jobs/{a1}/output"]
    )
    def test_200_then_304_with_if_none_match(self, deployment, path):
        deployment.seed("a1", "alice", ["echo", "hi"])
        token = deployment.login("alice", "alice-pass")
        status, headers, body = deployment.call("GET", path, token=token)
        assert status == 200 and body
        etag = headers["ETag"]
        status, headers, body = deployment.call(
            "GET", path, token=token, headers={"If-None-Match": etag}
        )
        assert (status, headers["ETag"], body) == (304, etag, None)

    def test_304_ends_when_the_job_list_changes(self, deployment):
        token = deployment.login("alice", "alice-pass")
        _, headers, first = deployment.call("GET", "/api/jobs", token=token)
        assert first == {"jobs": []}
        deployment.seed("a1", "alice", ["true"])
        status, _, body = deployment.call(
            "GET", "/api/jobs", token=token, headers={"If-None-Match": headers["ETag"]}
        )
        assert status == 200 and [j["name"] for j in body["jobs"]] == ["a1"]

    def test_bearer_logout_ends_the_session(self, deployment):
        token = deployment.login("alice", "alice-pass")
        assert deployment.call("GET", "/api/whoami", token=token)[0] == 200
        assert deployment.call("POST", "/api/logout", token=token)[0] == 200
        assert deployment.call("GET", "/api/whoami", token=token)[0] == 401

    def test_argv_or_path_submit_is_chosen_by_deployment(self, deployment):
        token = deployment.login("alice", "alice-pass")
        spec = {"name": "argv", "argv": ["echo", "x"], "path": "missing.c"}
        status, _, body = deployment.call("POST", "/api/jobs", spec, token)
        if deployment.kind == "bus":
            assert status == 201 and body["job"]["owner"] == "alice"
        else:
            # the monolith compiles ``path`` from the user's home
            assert status == 400 and "missing.c" in body["error"]

    def test_bad_argv_spec_is_400_not_500(self, deployment):
        if deployment.kind == "local":
            pytest.skip("the monolith's submit compiles from a path")
        token = deployment.login("alice", "alice-pass")
        for spec in ({"argv": ["true"], "n_tasks": "many"}, {"argv": ["true"], "kind": "x"}):
            status, _, body = deployment.call("POST", "/api/jobs", spec, token)
            assert status == 400, body

    def test_no_post_route_answers_500_to_a_non_object_body(self, deployment):
        deployment.seed("a1", "alice", ["echo", "hi"])
        token = deployment.login("admin", "admin-pass")
        posts = [
            pattern
            for pattern, route in deployment.app.router._all.items()
            if "POST" in route.methods
        ]
        assert "/api/jobs" in posts and "/api/login" in posts
        for pattern in posts:
            path = pattern.replace("<job_id>", "{a1}")
            for body in (b"[1, 2]", b"7", b'"text"', b"null"):
                status, _, answer = deployment.call("POST", path, body, token)
                assert status != 500, (pattern, body, answer)

    @pytest.mark.parametrize(
        "path",
        [
            "/api/login", "/api/users", "/api/password", "/api/jobs",
            "/api/jobs/{a1}/input", "/api/files/mkdir", "/api/files/copy",
            "/api/files/move", "/api/files/rename", "/api/compile", "/api/lint",
            "/api/explore", "/api/cluster/reconfigure",
        ],
    )
    def test_json_body_routes_reject_non_objects_with_400(self, deployment, path):
        deployment.seed("a1", "alice", ["echo", "hi"])
        if path.replace("{a1}", "<job_id>") not in deployment.app.router._all:
            pytest.skip(f"{path} needs in-process state")
        token = deployment.login("admin", "admin-pass")
        status, _, body = deployment.call("POST", path, b"[1, 2]", token)
        assert (status, body["error"]) == (400, "body must be a JSON object")

    def test_validate_reports_a_non_object_document(self, deployment):
        if deployment.kind == "bus":
            pytest.skip("spec routes stay in-process")
        token = deployment.login("admin", "admin-pass")
        status, _, report = deployment.call("POST", "/api/cluster/validate", b"[1, 2]", token)
        assert status == 200 and not report["ok"] and report["findings"]


class TestClusterPort:
    @staticmethod
    def _port_calls() -> set[str]:
        """Every ``self.proxy.<name>(...)`` call in the portal app's source."""
        import repro.portal.app as app_module

        tree = ast.parse(inspect.getsource(app_module))
        return {
            node.func.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "proxy"
        }

    def test_every_port_call_has_the_same_signature_on_both_transports(self):
        calls = self._port_calls()
        assert {"control_state", "output_fingerprint", "describe"} <= calls
        # ``job`` returns a live Job, so only the in-process routes call it
        assert calls - {"job"} <= set(vars(ClusterProxy))
        for name in calls - {"job"}:
            assert inspect.signature(getattr(LocalCluster, name)) == inspect.signature(
                getattr(ClusterProxy, name)
            ), name

    def test_local_cluster_implements_the_whole_proxy_port(self):
        port = {
            name for name, fn in vars(ClusterProxy).items()
            if callable(fn) and not name.startswith("_") and name != "service_stats"
        }
        for name in port:
            assert inspect.signature(getattr(LocalCluster, name)) == inspect.signature(
                getattr(ClusterProxy, name)
            ), name

    def test_in_process_routes_need_a_local_port_over_the_same_distributor(self, tmp_path):
        app = make_default_app(str(tmp_path), cluster_spec=ClusterSpec.small())
        other = LocalCluster(JobDistributor(Grid(ClusterSpec.small()), SubprocessBackend()))
        with pytest.raises(ValueError, match="LocalCluster"):
            PortalApp(app.users, app.sessions, other, app.jobsvc)
