"""Python client for the portal's JSON API.

Two transports behind one interface:

* **in-process WSGI** — ``PortalClient(app=portal_app)`` calls the WSGI
  callable directly (no sockets); this is how the test suite and the
  semester simulation drive the portal;
* **real HTTP** — ``PortalClient(base_url="http://host:port")`` uses
  :mod:`http.client`, for talking to :func:`repro.portal.server.serve`.
"""

from __future__ import annotations

import io
import json
import secrets
import urllib.parse
from typing import Any, Optional

from repro._errors import PortalError

__all__ = ["PortalClient"]


class _WsgiTransport:
    """Call a WSGI app in-process."""

    def __init__(self, app) -> None:
        self.app = app

    def request(
        self, method: str, path: str, body: bytes = b"", headers: dict[str, str] | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        headers = headers or {}
        parsed = urllib.parse.urlsplit(path)
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": parsed.path,
            "QUERY_STRING": parsed.query,
            "CONTENT_LENGTH": str(len(body)),
            "CONTENT_TYPE": headers.get("Content-Type", ""),
            "wsgi.input": io.BytesIO(body),
            "wsgi.errors": io.StringIO(),
            "wsgi.url_scheme": "http",
            "SERVER_NAME": "in-process",
            "SERVER_PORT": "0",
        }
        for name, value in headers.items():
            environ["HTTP_" + name.upper().replace("-", "_")] = value

        captured: dict[str, Any] = {}

        def start_response(status: str, response_headers):
            captured["status"] = int(status.split(" ", 1)[0])
            captured["headers"] = response_headers

        chunks = self.app(environ, start_response)
        payload = b"".join(chunks)
        header_map: dict[str, str] = {}
        for k, v in captured["headers"]:
            # Multiple Set-Cookie headers: keep them newline-joined.
            if k in header_map:
                header_map[k] += "\n" + v
            else:
                header_map[k] = v
        return captured["status"], header_map, payload


class _HttpTransport:
    """Talk to a live portal over TCP."""

    def __init__(self, base_url: str) -> None:
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http":
            raise PortalError(f"only http:// is supported, got {base_url!r}")
        self.host = parsed.hostname or "localhost"
        self.port = parsed.port or 80

    def request(self, method, path, body=b"", headers=None):
        import http.client

        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request(method, path, body=body or None, headers=headers or {})
            resp = conn.getresponse()
            payload = resp.read()
            header_map: dict[str, str] = {}
            for k, v in resp.getheaders():
                if k in header_map:
                    header_map[k] += "\n" + v
                else:
                    header_map[k] = v
            return resp.status, header_map, payload
        finally:
            conn.close()


class PortalClient:
    """Session-holding client mirroring every portal endpoint.

    With ``conditional=True`` the client remembers the ``ETag`` of every
    ``GET`` it makes and replays it as ``If-None-Match``; a ``304 Not
    Modified`` is answered from the client-side copy.  Polling loops
    (job output, cluster status, listings) then cost the server a cache
    probe instead of a render.
    """

    def __init__(
        self, app=None, base_url: str | None = None, conditional: bool = False
    ) -> None:
        if (app is None) == (base_url is None):
            raise PortalError("pass exactly one of app= (in-process) or base_url= (HTTP)")
        self._transport = _WsgiTransport(app) if app is not None else _HttpTransport(base_url)
        self._token: Optional[str] = None
        self.conditional = conditional
        #: GET path -> (etag, result) for conditional replays
        self._validators: dict[str, tuple[str, Any]] = {}

    # -- plumbing -----------------------------------------------------------
    def _call(
        self,
        method: str,
        path: str,
        json_body: Any = None,
        raw_body: bytes | None = None,
        content_type: str = "",
        expect_json: bool = True,
    ):
        headers: dict[str, str] = {}
        if self._token:
            headers["Authorization"] = f"Bearer {self._token}"
        body = b""
        if json_body is not None:
            body = json.dumps(json_body).encode()
            headers["Content-Type"] = "application/json"
        elif raw_body is not None:
            body = raw_body
            headers["Content-Type"] = content_type or "application/octet-stream"
        cached = None
        if self.conditional and method == "GET":
            cached = self._validators.get(path)
            if cached is not None:
                headers["If-None-Match"] = cached[0]
        status, resp_headers, payload = self._transport.request(method, path, body, headers)
        if status == 304 and cached is not None:
            return cached[1]
        if not expect_json:
            if self.conditional and method == "GET" and status < 400:
                etag = resp_headers.get("ETag")
                if etag:
                    self._validators[path] = (etag, (status, payload))
            return status, payload
        data = json.loads(payload) if payload else {}
        if status >= 400:
            raise PortalError(f"{method} {path} -> {status}: {data.get('error', payload[:200])}")
        if self.conditional and method == "GET":
            etag = resp_headers.get("ETag")
            if etag:
                self._validators[path] = (etag, data)
        return data

    # -- session ---------------------------------------------------------------
    def login(self, username: str, password: str) -> dict:
        """Authenticate and hold the session token for later calls."""
        data = self._call("POST", "/api/login", {"username": username, "password": password})
        self._token = data["token"]
        return data

    def logout(self) -> None:
        self._call("POST", "/api/logout")
        self._token = None

    def whoami(self) -> dict:
        return self._call("GET", "/api/whoami")

    def create_user(self, username: str, password: str, role: str = "student", full_name: str = "") -> dict:
        return self._call(
            "POST", "/api/users",
            {"username": username, "password": password, "role": role, "full_name": full_name},
        )

    # -- files ---------------------------------------------------------------------
    def list_files(self, path: str = "") -> list[dict]:
        q = urllib.parse.urlencode({"path": path})
        return self._call("GET", f"/api/files?{q}")["entries"]

    def read_file(self, path: str) -> str:
        q = urllib.parse.urlencode({"path": path})
        return self._call("GET", f"/api/files/content?{q}")["content"]

    def download_file(self, path: str) -> bytes:
        q = urllib.parse.urlencode({"path": path, "download": "1"})
        status, payload = self._call("GET", f"/api/files/content?{q}", expect_json=False)
        if status >= 400:
            raise PortalError(f"download failed: {status}")
        return payload

    def write_file(self, path: str, content: str | bytes) -> dict:
        raw = content.encode() if isinstance(content, str) else content
        q = urllib.parse.urlencode({"path": path})
        return self._call("PUT", f"/api/files/content?{q}", raw_body=raw)

    def upload(self, files: dict[str, bytes]) -> dict:
        """Multipart upload of ``{filename: content}``."""
        boundary = "----repro" + secrets.token_hex(8)
        parts = []
        for name, content in files.items():
            parts.append(
                f"--{boundary}\r\n"
                f'Content-Disposition: form-data; name="{name}"; filename="{name}"\r\n'
                f"Content-Type: application/octet-stream\r\n\r\n".encode() + content + b"\r\n"
            )
        body = b"".join(parts) + f"--{boundary}--\r\n".encode()
        return self._call(
            "POST", "/api/files/upload",
            raw_body=body, content_type=f"multipart/form-data; boundary={boundary}",
        )

    def mkdir(self, path: str) -> None:
        self._call("POST", "/api/files/mkdir", {"path": path})

    def copy(self, src: str, dst: str) -> None:
        self._call("POST", "/api/files/copy", {"src": src, "dst": dst})

    def move(self, src: str, dst: str) -> None:
        self._call("POST", "/api/files/move", {"src": src, "dst": dst})

    def rename(self, path: str, new_name: str) -> str:
        return self._call("POST", "/api/files/rename", {"path": path, "new_name": new_name})["path"]

    def delete(self, path: str) -> None:
        q = urllib.parse.urlencode({"path": path})
        self._call("DELETE", f"/api/files?{q}")

    # -- compile & jobs ----------------------------------------------------------------
    def compile(self, path: str, language: str | None = None) -> dict:
        body = {"path": path}
        if language:
            body["language"] = language
        return self._call("POST", "/api/compile", body)

    def lint(self, path: str | None = None, source: str | None = None) -> dict:
        """Static concurrency analysis of a lab program.

        Pass ``path`` (a ``.py`` file in the home directory) or
        ``source`` (raw program text); returns the analysis report dict.
        """
        body: dict = {}
        if source is not None:
            body["source"] = source
        if path is not None:
            body["path"] = path
        return self._call("POST", "/api/lint", body)

    def submit_job(self, path: str, **kwargs) -> dict:
        """Compile-and-run; kwargs mirror the /api/jobs body fields."""
        return self._call("POST", "/api/jobs", {"path": path, **kwargs})

    def jobs(self) -> list[dict]:
        return self._call("GET", "/api/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._call("GET", f"/api/jobs/{job_id}")

    def job_output(self, job_id: str, since: int = 0) -> dict:
        return self._call("GET", f"/api/jobs/{job_id}/output?since={since}")

    def send_input(self, job_id: str, text: str) -> None:
        self._call("POST", f"/api/jobs/{job_id}/input", {"text": text})

    def cancel_job(self, job_id: str) -> bool:
        return self._call("POST", f"/api/jobs/{job_id}/cancel")["ok"]

    def explore(
        self,
        lab: str,
        variant: str = "broken",
        algorithm: str = "dpor",
        max_schedules: int = 2000,
        max_seconds: float = 30.0,
    ) -> dict:
        """Submit a schedule exploration job; returns the job description."""
        return self._call(
            "POST",
            "/api/explore",
            {
                "lab": lab,
                "variant": variant,
                "algorithm": algorithm,
                "max_schedules": max_schedules,
                "max_seconds": max_seconds,
            },
        )["job"]

    def explore_report(self, job_id: str) -> dict:
        """The exploration report envelope (``ready`` + ``report`` when done)."""
        return self._call("GET", f"/api/explore/{job_id}")

    def wait_for_job(self, job_id: str, timeout: float = 60.0, poll_s: float = 0.05) -> dict:
        """Poll until the job reaches a terminal state; returns its description."""
        import time

        deadline = time.monotonic() + timeout
        terminal = {"completed", "failed", "cancelled", "timeout"}
        while time.monotonic() < deadline:
            desc = self.job(job_id)
            if desc["state"] in terminal:
                return desc
            time.sleep(poll_s)
        raise PortalError(f"job {job_id} still {desc['state']} after {timeout}s")

    def change_password(self, old: str, new: str) -> None:
        self._call("POST", "/api/password", {"old": old, "new": new})

    # -- cluster ------------------------------------------------------------------------
    def cluster_status(self) -> dict:
        return self._call("GET", "/api/cluster/status")

    def cluster_accounting(self) -> dict:
        """Accounting summary + recent records (instructor/admin only)."""
        return self._call("GET", "/api/cluster/accounting")

    def quota(self) -> dict:
        """This user's disk usage and quota."""
        return self._call("GET", "/api/quota")

    def fleet(self) -> dict:
        """Elastic-fleet snapshot (``{"enabled": False}`` when unmanaged)."""
        return self._call("GET", "/api/fleet")

    def fleet_decisions(self) -> dict:
        """The fleet manager's scaling-decision log (instructor/admin only)."""
        return self._call("GET", "/debug/fleet")

    def cluster_spec(self) -> dict:
        """The live deployment serialised as a spec document."""
        return self._call("GET", "/api/cluster/spec")["spec"]

    def validate_spec(self, doc: dict) -> dict:
        """Collect-all validation report for ``doc`` (always 200)."""
        return self._call("POST", "/api/cluster/validate", {"spec": doc})

    def reconfigure(self, doc: dict, apply: bool = False) -> dict:
        """Plan (default) or apply a reconfiguration (instructor/admin)."""
        return self._call("POST", "/api/cluster/reconfigure", {"spec": doc, "apply": apply})
