"""One portal, two transports: the same routes answer the same way.

Every test here runs against a monolith (``local``: ``make_default_app``,
whose port is an in-process ``LocalCluster``) and a scale-out worker
(``bus``: a ``FrontendFleet`` worker, whose port is a ``ClusterProxy``).
Jobs, explorations and files are seeded straight into each deployment's
distributor, cluster-side port and home directories, so the seeding
itself crosses neither transport.
"""

from __future__ import annotations

import ast
import inspect
import json
import re
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
_VOLATILE = {
    "runtime_s", "wait_s", "started_at", "finished_at", "token", "mtime", "t",
    "start", "end", "duration_s", "mean_wait_s", "p95_wait_s", "mean_runtime_s",
    "core_seconds", "elapsed_s",
}

#: stands for the deployment's live spec document in a request body
_LIVE_SPEC = "<live spec>"

#: a C program both deployments can compile (gcc, else the simulated toolchain)
_HELLO_C = b'#include <stdio.h>\nint main(void) { puts("hi"); return 0; }\n'


class Deployment:
    """One portal app, its distributor, cluster-side port and account store."""

    def __init__(self, kind: str, app: PortalApp, dist: JobDistributor, port, users) -> None:
        self.kind = kind
        self.app = app
        self.dist = dist
        self.port = port
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

    def seed_explore(self, name: str, owner: str) -> str:
        """Run a small exploration on the cluster side of the port."""
        job_id = self.port.explore(owner, "lab1", "fixed", max_schedules=50)["id"]
        assert self.dist.wait_all(timeout=30.0)
        self.jobs[name] = job_id
        return job_id

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
            parsed = payload.decode(errors="replace")
        return status, out_headers, parsed

    def normalised(self, body):
        """``body`` with job ids, times, tokens, the home directory and the
        worker id masked."""
        text = json.dumps(body, sort_keys=True)
        for name, job_id in self.jobs.items():
            text = text.replace(job_id, f"<{name}>")
        text = text.replace(str(self.app.files.root), "<homes>")
        text = re.sub(r"job-\d{6}", "<job>", text)
        if isinstance(body, str):  # an HTML page: mask rendered times
            text = re.sub(r"\d+(\.\d+)?(e[-+]?\d+)? ?m?s\b", "<t>", text)
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
        return Deployment(kind, app, app.proxy.distributor, app.proxy, app.users), None
    dist = JobDistributor(Grid(ClusterSpec.small()), SubprocessBackend())
    fleet = FrontendFleet(dist, n_workers=1, home_root=str(tmp_path / "homes")).start()
    fleet.users.add_user("admin", "admin-pass", role="admin")
    dep = Deployment(kind, fleet.workers[0], dist, fleet.service.cluster, fleet.users)
    return dep, fleet


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
        dep.seed_explore("x1", "alice")
        dep.app.files.write("alice", "hello.c", _HELLO_C)
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
    # files and quota
    ("alice", "GET", "/api/files", None),
    ("alice", "GET", "/api/files/content?path=hello.c", None),
    ("alice", "GET", "/api/files/content?path=nope.c", None),  # 404
    ("alice", "PUT", "/api/files/content?path=notes.txt", b"some notes"),
    ("alice", "POST", "/api/files/mkdir", {"path": "lab"}),
    ("alice", "POST", "/api/files/copy", {"src": "hello.c", "dst": "lab/copy.c"}),
    ("alice", "POST", "/api/files/move", {"src": "lab/copy.c", "dst": "lab/moved.c"}),
    ("alice", "POST", "/api/files/rename", {"path": "lab/moved.c", "new_name": "r.c"}),
    ("alice", "GET", "/api/files?path=lab", None),
    ("alice", "DELETE", "/api/files?path=lab", None),
    ("alice", "GET", "/api/quota", None),
    # compile, lint, submit, explore
    ("alice", "POST", "/api/compile", {"path": "hello.c"}),
    ("alice", "POST", "/api/compile", {"path": "nope.c"}),  # 400
    ("alice", "POST", "/api/lint", {"source": "x = 1\n"}),
    ("alice", "POST", "/api/lint", {"path": "hello.c"}),  # 400: Python only
    ("alice", "POST", "/api/jobs", {"path": "nope.c"}),  # 400
    ("alice", "POST", "/api/explore", {"lab": "lab99"}),
    ("alice", "POST", "/api/explore", {"lab": "lab1", "algorithm": "quantum"}),
    ("alice", "GET", "/api/explore/{x1}", None),
    ("alice", "GET", "/api/explore/{a1}", None),  # not an exploration
    ("bob", "GET", "/api/explore/{x1}", None),  # 403
    # cluster management
    ("alice", "GET", "/api/cluster/accounting", None),  # 403
    ("admin", "GET", "/api/cluster/accounting", None),
    ("alice", "GET", "/api/cluster/spec", None),
    ("alice", "POST", "/api/cluster/validate", {"spec": {"cluster": {}}}),
    ("alice", "POST", "/api/cluster/reconfigure", {"spec": {}}),  # 403
    ("admin", "POST", "/api/cluster/reconfigure", {"spec": {"cluster": {}}}),  # 400
    ("admin", "POST", "/api/cluster/reconfigure", {"spec": {}, "apply": True}),  # 400
    # observability
    ("alice", "GET", "/debug/trace/{a1}?format=json", None),
    ("alice", "GET", "/debug/trace/{a1}", None),
    ("alice", "GET", "/debug/trace/{b1}?format=json", None),  # 403
    ("admin", "GET", "/debug/trace/{b1}?format=json", None),
    ("alice", "GET", "/debug/events", None),  # 403
    ("admin", "GET", "/debug/events?severity=info", None),
    # HTML pages
    (None, "GET", "/", None),  # redirect to /login
    (None, "GET", "/login", None),
    ("alice", "GET", "/", None),
    ("alice", "GET", "/jobs/{a1}", None),
    ("alice", "GET", "/jobs/{b1}", None),  # 403
    ("alice", "POST", "/jobs/{a1}/input", b"text="),
    ("alice", "POST", "/login", b"username=alice&password=wrong"),
]


class TestSameAnswers:
    def test_shared_routes_answer_alike(self, both):
        answers = []
        for dep in both:
            tokens = {
                "alice": dep.login("alice", "alice-pass"),
                "bob": dep.login("bob", "bob-pass"),
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
        """Every deployment chooses the same way, by the body: ``path``
        compiles from the user's home, an argv spec runs as it stands."""
        token = deployment.login("alice", "alice-pass")
        spec = {"name": "argv", "argv": ["echo", "x"], "path": "missing.c"}
        status, _, body = deployment.call("POST", "/api/jobs", spec, token)
        assert status == 400 and "missing.c" in body["error"]
        del spec["path"]
        status, _, body = deployment.call("POST", "/api/jobs", spec, token)
        assert status == 201 and set(body) == {"job"}
        assert (body["job"]["name"], body["job"]["owner"]) == ("argv", "alice")
        deployment.app.files.write("alice", "hello.c", _HELLO_C)
        status, _, body = deployment.call(
            "POST", "/api/jobs", {"path": "hello.c", "args": ["a"], "max_retries": 1}, token
        )
        assert status == 201 and body["compile"]["ok"] and body["lint"] is None
        assert (body["job"]["name"], body["job"]["owner"]) == ("hello.c", "alice")
        assert deployment.dist.job(body["job"]["id"]).request.retry.max_attempts == 2

    def test_non_string_stdin_text_answers_400(self, deployment):
        token = deployment.login("alice", "alice-pass")
        spec = {"name": "cat", "kind": "interactive", "argv": ["cat"], "timeout_s": 30.0}
        status, _, body = deployment.call("POST", "/api/jobs", spec, token)
        assert status == 201, body
        job_id = body["job"]["id"]
        for text in (5, ["a"], None):
            status, _, answer = deployment.call(
                "POST", f"/api/jobs/{job_id}/input", {"text": text}, token
            )
            assert status == 400, (text, answer)
        status, _, _ = deployment.call("POST", f"/api/jobs/{job_id}/input", {"text": "ok\n"}, token)
        assert status == 200
        deployment.port.job("alice", job_id).stdin.close()  # EOF: cat exits
        assert deployment.dist.wait_all(timeout=10.0)
        _, _, out = deployment.call("GET", f"/api/jobs/{job_id}/output", token=token)
        assert (out["state"], out["stdout"]) == ("completed", ["ok"])

    def test_bad_argv_spec_is_400_not_500(self, deployment):
        token = deployment.login("alice", "alice-pass")
        for spec in ({"argv": ["true"], "n_tasks": "many"}, {"argv": ["true"], "kind": "x"}):
            status, _, body = deployment.call("POST", "/api/jobs", spec, token)
            assert status == 400, body

    def test_a_retry_on_string_is_refused_not_split_into_characters(self, deployment):
        token = deployment.login("alice", "alice-pass")
        spec = {"argv": ["true"], "retry": {"retry_on": "failed"}}
        status, _, body = deployment.call("POST", "/api/jobs", spec, token)
        assert status == 400 and "retry_on must be list" in body["error"], body
        assert deployment.dist.jobs == {}

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
        "method,path,body",
        [
            ("POST", "/api/jobs", {"path": "hello.c", "n_tasks": "many"}),
            ("POST", "/api/jobs", {"path": "hello.c", "args": 5}),
            ("POST", "/api/jobs", {"path": "hello.c", "timeout_s": "soon"}),
            ("POST", "/api/jobs", {"path": "hello.c", "kind": "x"}),
            ("POST", "/api/jobs", {"path": "hello.c", "max_retries": -1}),
            ("POST", "/api/jobs", {"path": 5}),
            ("POST", "/api/explore", {"lab": "lab1", "max_schedules": "x"}),
            ("POST", "/api/explore", {"lab": "lab1", "max_seconds": "x"}),
            ("GET", "/debug/events?severity=bogus", None),
            ("POST", "/api/lint", {"path": 5}),
            ("POST", "/api/files/rename", {"path": "hello.c", "new_name": 5}),
            ("POST", "/api/compile", {"path": ["hello.c"]}),
            ("POST", "/api/jobs", {"argv": ["true"], "need_gpu": 0}),
            ("POST", "/api/jobs", {"argv": ["true"], "after_ok": "no"}),
            ("POST", "/api/jobs", {"argv": "echo hi"}),
            ("POST", "/api/jobs", {"argv": ["true"], "after": "job-1"}),
            ("POST", "/api/jobs", {"argv": ["true"], "env": {"A": 1}}),
            ("POST", "/api/jobs", {"argv": ["true"], "node_type": ["gpu"]}),
            ("POST", "/api/jobs", {"argv": ["true"], "workdir": 5}),
            ("POST", "/api/jobs", {"argv": ["true"], "retry": 5}),
            ("POST", "/api/jobs", {"argv": ["true"], "n_tasks": 1.9}),
            ("POST", "/api/jobs", {"argv": ["true"], "stdin": 5}),
            ("POST", "/api/jobs", {"argv": ["true"], "name": ["x"]}),
            ("POST", "/api/jobs", {"argv": ["true"], "priority": True}),
            ("POST", "/api/jobs", {"argv": ["true"], "retry": {"max_attempts": 2.5}}),
            ("POST", "/api/jobs", {"path": "hello.c", "max_retries": True}),
            ("POST", "/api/jobs", {"path": "hello.c", "args": ["-n", 5]}),
            ("POST", "/api/users", {"username": ["zed"], "password": "zed-pass"}),
            ("POST", "/api/password", {"old": 5, "new": "new-pass"}),
            ("POST", "/api/login", {"username": 5, "password": "admin-pass"}),
            ("POST", "/api/explore", {"lab": 5}),
            ("POST", "/api/cluster/reconfigure", {"spec": _LIVE_SPEC, "apply": "false"}),
            ("POST", "/api/lint", {"source": 5}),
            ("POST", "/api/lint", {"source": ["import threading"]}),
        ],
    )
    def test_wrongly_typed_fields_answer_400(self, deployment, method, path, body):
        deployment.app.files.write("admin", "hello.c", _HELLO_C)
        token = deployment.login("admin", "admin-pass")
        if body and body.get("spec") is _LIVE_SPEC:
            body = {**body, "spec": deployment.port.spec_describe()}
        status, _, answer = deployment.call(method, path, body, token)
        assert status == 400, answer
        assert deployment.dist.jobs == {}, "nothing may be submitted"

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
        token = deployment.login("admin", "admin-pass")
        status, _, body = deployment.call("POST", path, b"[1, 2]", token)
        assert (status, body["error"]) == (400, "body must be a JSON object")

    def test_validate_reports_a_non_object_document(self, deployment):
        token = deployment.login("admin", "admin-pass")
        status, _, report = deployment.call("POST", "/api/cluster/validate", b"[1, 2]", token)
        assert status == 200 and not report["ok"] and report["findings"]


class TestClusterPort:
    @staticmethod
    def _port_calls() -> set[str]:
        """Every ``self.proxy.<name>(...)`` call in the portal app's source,
        and every ``self.port.<name>(...)`` call in the job service's."""
        import repro.portal.app as app_module
        import repro.portal.jobsvc as jobsvc_module

        return {
            node.func.attr
            for module, port in ((app_module, "proxy"), (jobsvc_module, "port"))
            for node in ast.walk(ast.parse(inspect.getsource(module)))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == port
        }

    def test_every_port_call_has_the_same_signature_on_both_transports(self):
        calls = self._port_calls()
        assert {"control_state", "output_fingerprint", "describe", "submit"} <= calls
        assert calls <= set(vars(ClusterProxy))
        for name in calls:
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
