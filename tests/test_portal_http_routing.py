"""HTTP layer and router units."""

import datetime
import io
import json
from pathlib import Path

import pytest

from repro.portal.http import HttpError, Request, Response
from repro.portal.routing import Router


def make_environ(method="GET", path="/", query="", body=b"", content_type="", headers=None):
    env = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "CONTENT_LENGTH": str(len(body)),
        "CONTENT_TYPE": content_type,
        "wsgi.input": io.BytesIO(body),
    }
    for k, v in (headers or {}).items():
        env["HTTP_" + k.upper().replace("-", "_")] = v
    return env


class TestRequest:
    def test_query_parsing(self):
        req = Request(make_environ(query="a=1&b=two&b=three"))
        assert req.query == {"a": "1", "b": "three"}

    def test_json_body(self):
        req = Request(make_environ(method="POST", body=b'{"k": [1, 2]}'))
        assert req.json() == {"k": [1, 2]}

    def test_malformed_json_is_400(self):
        req = Request(make_environ(method="POST", body=b"{nope"))
        with pytest.raises(HttpError) as e:
            req.json()
        assert e.value.status == 400

    def test_empty_json_body_is_empty_dict(self):
        assert Request(make_environ()).json() == {}

    def test_form_parsing(self):
        req = Request(make_environ(method="POST", body=b"user=bob&pw=x%26y"))
        assert req.form() == {"user": "bob", "pw": "x&y"}

    def test_multipart_parsing(self):
        boundary = "XYZ"
        body = (
            f"--{boundary}\r\n"
            'Content-Disposition: form-data; name="f1"; filename="a.txt"\r\n'
            "Content-Type: text/plain\r\n\r\n"
            "file contents\r\n"
            f"--{boundary}--\r\n"
        ).encode()
        req = Request(
            make_environ(
                method="POST",
                body=body,
                content_type=f"multipart/form-data; boundary={boundary}",
            )
        )
        parts = req.multipart()
        assert parts["f1"] == ("a.txt", b"file contents")

    def test_multipart_requires_content_type(self):
        req = Request(make_environ(method="POST", body=b"x"))
        with pytest.raises(HttpError):
            req.multipart()

    def test_oversized_body_rejected(self):
        env = make_environ()
        env["CONTENT_LENGTH"] = str(100 * 1024 * 1024)
        with pytest.raises(HttpError) as e:
            _ = Request(env).body
        assert e.value.status == 413

    def test_cookie_parsing(self):
        req = Request(make_environ(headers={"Cookie": "a=1; b=two"}))
        assert req.cookies() == {"a": "1", "b": "two"}

    def test_header_lookup(self):
        req = Request(make_environ(headers={"Authorization": "Bearer tok"}))
        assert req.header("Authorization") == "Bearer tok"
        assert req.header("Missing", "dflt") == "dflt"


class TestResponse:
    def capture(self, resp):
        captured = {}

        def start_response(status, headers):
            captured["status"] = status
            captured["headers"] = headers

        body = b"".join(resp.to_wsgi(start_response))
        return captured, body

    def test_json_response(self):
        cap, body = self.capture(Response.json({"ok": True}))
        assert cap["status"].startswith("200")
        assert b'"ok"' in body
        assert ("Content-Type", "application/json") in cap["headers"]

    @pytest.mark.parametrize(
        "data",
        [
            {"id": "job-000001", "name": "hello", "owner": "alice", "state": "completed",
             "placement": {"seg-0-n00": 1}, "exit_code": 0, "error": None,
             "attempts": [{"no": 1, "started_at": 1.25, "finished_at": 2.5e-7}]},
            {"state": "completed", "stdout": ["hello", ""], "next": 2, "truncated": False,
             "stderr_tail": [], "exit_code": 0, "attempts": [], "retries": 0},
            {"error": "job job-999999 not found", "status": 404},
            {"stdout": ["h\u00e9llo w\u00f6rld \u2603 \U0001f600", "tab\tquote\"\\"]},
            {"when": datetime.date(2013, 5, 20), "path": Path("/srv/homes"),
             "nan": float("nan"), "inf": float("-inf"), 3: (1, 2)},
            "a bare string", 7, None,
        ],
        ids=["describe", "output", "error", "non-ascii", "default-str", "str", "int", "null"],
    )
    def test_json_bytes_match_json_dumps(self, data):
        expected = json.dumps(data, indent=None, default=str).encode()
        assert Response.json(data).body == expected

    def test_error_response(self):
        cap, body = self.capture(Response.error(404, "gone"))
        assert cap["status"].startswith("404")
        assert b"gone" in body

    def test_redirect(self):
        cap, _ = self.capture(Response.redirect("/login"))
        assert cap["status"].startswith("302")
        assert ("Location", "/login") in cap["headers"]

    def test_download_headers(self):
        cap, body = self.capture(Response.download(b"bytes", "f.bin"))
        assert body == b"bytes"
        assert any("attachment" in v for _, v in cap["headers"])

    def test_cookie_set_and_delete(self):
        resp = Response("x").set_cookie("sid", "abc", max_age=60)
        values = [v for k, v in resp.headers if k == "Set-Cookie"]
        assert any("sid=abc" in v and "Max-Age=60" in v and "HttpOnly" in v for v in values)
        resp.delete_cookie("sid")
        values = [v for k, v in resp.headers if k == "Set-Cookie"]
        assert any("Max-Age=0" in v for v in values)

    def test_content_length_set(self):
        cap, _ = self.capture(Response("hello"))
        assert ("Content-Length", "5") in cap["headers"]


class TestRouter:
    def make(self):
        router = Router()
        router.add("GET", "/things", lambda r: Response("list"))
        router.add("POST", "/things", lambda r: Response("created"))
        router.add("GET", "/things/<thing_id>", lambda r: Response(r.params["thing_id"]))
        return router

    def dispatch(self, router, method, path):
        return router.dispatch(Request(make_environ(method=method, path=path)))

    def test_static_match(self):
        assert self.dispatch(self.make(), "GET", "/things").body == b"list"

    def test_method_dispatch(self):
        assert self.dispatch(self.make(), "POST", "/things").body == b"created"

    def test_param_extraction(self):
        assert self.dispatch(self.make(), "GET", "/things/42").body == b"42"

    def test_segment_param_rejects_slashes(self):
        with pytest.raises(HttpError) as e:
            self.dispatch(self.make(), "GET", "/things/1/2")
        assert e.value.status == 404

    def test_405_for_wrong_method(self):
        with pytest.raises(HttpError) as e:
            self.dispatch(self.make(), "DELETE", "/things")
        assert e.value.status == 405
        assert "GET" in e.value.message

    def test_404_for_unknown_path(self):
        with pytest.raises(HttpError) as e:
            self.dispatch(self.make(), "GET", "/nope")
        assert e.value.status == 404

    def test_duplicate_route_rejected(self):
        router = self.make()
        with pytest.raises(ValueError):
            router.add("GET", "/things", lambda r: Response("x"))

    @pytest.mark.parametrize(
        "pattern", ["/files/<path:rest>", "/files/<path:rest>/meta", "/v<version>/jobs"]
    )
    def test_unsupported_patterns_rejected(self, pattern):
        router = Router()
        with pytest.raises(ValueError):
            router.add("GET", pattern, lambda r: Response("x"))
        # nothing half-registered: the router still has no routes at all
        with pytest.raises(HttpError) as e:
            self.dispatch(router, "GET", "/files/a")
        assert e.value.status == 404

    def test_decorator_form(self):
        router = Router()

        @router.route("GET", "/deco")
        def handler(req):
            return Response("decorated")

        assert self.dispatch(router, "GET", "/deco").body == b"decorated"


class TestRouterOverlap405:
    """A method mismatch in one tier must never shadow a match in another."""

    def make(self):
        router = Router()
        router.add("GET", "/api/files", lambda r: Response("static-get"))
        router.add("POST", "/api/<section>", lambda r: Response(f"dyn-{r.params['section']}"))
        return router

    def dispatch(self, router, method, path):
        return router.dispatch(Request(make_environ(method=method, path=path)))

    def test_static_wins_for_its_method(self):
        assert self.dispatch(self.make(), "GET", "/api/files").body == b"static-get"

    def test_wrong_method_on_static_falls_through_to_dynamic(self):
        # Pre-fast-path routers that stopped at the first pattern match
        # would raise 405 here; the POST must reach the dynamic route.
        assert self.dispatch(self.make(), "POST", "/api/files").body == b"dyn-files"

    def test_405_lists_union_of_methods_across_tiers(self):
        with pytest.raises(HttpError) as e:
            self.dispatch(self.make(), "DELETE", "/api/files")
        assert e.value.status == 405
        assert "GET" in e.value.message and "POST" in e.value.message

    def test_tier_counters_track_static_vs_dynamic(self):
        router = self.make()
        self.dispatch(router, "GET", "/api/files")
        self.dispatch(router, "GET", "/api/files")
        self.dispatch(router, "POST", "/api/jobs")
        assert router.counters == {"routed_static": 2, "routed_dynamic": 1}
