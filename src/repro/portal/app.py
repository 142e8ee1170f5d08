"""The portal WSGI application: every endpoint, wired, over a cluster port.

:class:`PortalApp` reaches the cluster only through a *cluster port*:
an in-process :class:`~repro.bus.service.LocalCluster` in the monolith
(:func:`make_default_app`), or a :class:`~repro.bus.proxy.ClusterProxy`
over the bus in a scale-out worker
(:class:`~repro.portal.frontend.FrontendFleet`).  Both transports share
one request path, one error table and one ownership check (in
``LocalCluster``, behind the bus for a worker).

Every route below is registered whatever the port: the home directories
and the toolchains are the portal's own (shared by a fleet's workers),
and everything else is a port method.

JSON API (all under ``/api``; cookie- or bearer-authenticated):

==========  =================================  ==========================================
POST        /api/login                         {username, password} → session cookie
POST        /api/logout                        end session (cookie or bearer token)
GET         /api/whoami                        current user
POST        /api/users                         create account (admin)
POST        /api/password                      {old, new}
GET         /api/files?path=                   directory listing
GET         /api/files/content?path=           download file
PUT         /api/files/content?path=           create/overwrite file (raw body)
POST        /api/files/upload                  multipart upload (fields = files)
POST        /api/files/mkdir                   {path}
POST        /api/files/copy                    {src, dst}
POST        /api/files/move                    {src, dst}
POST        /api/files/rename                  {path, new_name}
DELETE      /api/files?path=                   delete file/tree
POST        /api/compile                       {path[, language]}
POST        /api/lint                          {path} or {source} — static concurrency lint
POST        /api/jobs                          an argv job spec; with {path}: compile+lint+run
GET         /api/jobs                          this user's jobs
GET         /api/jobs/<job_id>                 one job
GET         /api/jobs/<job_id>/output?since=N  poll stdout/stderr
POST        /api/jobs/<job_id>/input           {text} — interactive stdin
POST        /api/jobs/<job_id>/cancel          cancel
POST        /api/explore                       schedule exploration of a lab program
GET         /api/explore/<job_id>              its finished report
GET         /api/cluster/status                grid utilisation snapshot
GET         /api/cluster/accounting            finished-job records (instructor)
GET         /api/cluster/spec                  live config as a spec document
POST        /api/cluster/validate              collect-all spec validation (always 200)
POST        /api/cluster/reconfigure           {spec[, apply]} — plan / apply (instructor)
GET         /api/fleet                         elastic-fleet snapshot (pools, pending)
GET         /api/quota                         home-directory usage
GET         /metrics                           Prometheus text format (unauthenticated)
GET         /debug/trace/<job_id>              job span tree (HTML, or ?format=json)
GET         /debug/requests                    the newest 50 requests (admin)
GET         /debug/events                      structured event log (admin)
GET         /debug/fleet                       fleet scaling-decision log (admin)
==========  =================================  ==========================================

HTML pages: ``GET /`` (dashboard), ``GET/POST /login``, ``POST /logout``,
``GET /jobs/<job_id>``, ``POST /jobs/<job_id>/input``.

A spec apply that changes the admission or toolchains stanza reaches
every app over the port (``on_spec_applied``), and each retunes its own
admission controller and toolchain registry.  A sealed job's describe
and output pages reach every app the same way (``on_job_sealed``); each
renders them once into its response cache, so its owner's reads of a
finished job make no port call.
"""

from __future__ import annotations

import time
from email.utils import formatdate
from typing import Callable, Optional

from repro._errors import (
    AuthenticationError,
    AuthorizationError,
    BusError,
    CompilationError,
    FileManagerError,
    JobError,
    PortalError,
    ReproError,
    RpcTimeout,
    SchedulingError,
    ToolchainNotFound,
)
from repro.bus.service import LocalCluster
from repro.cluster.distributor import JobDistributor
from repro.cluster.job import JobRequest
from repro.portal import templates
from repro.portal.admission import (
    AdmissionController,
    admission_key,
    bind_admission,
    shed_response,
)
from repro.portal.auth import User, UserStore
from repro.portal.files import FileManager
from repro.portal.http import HttpError, Request, Response
from repro.portal.jobsvc import JobService
from repro.portal.respcache import ResponseCache, cached, conditional_get, serve
from repro.portal.routing import Router
from repro.portal.sessions import SessionStore
from repro.spec import build_admission, build_toolchains, validate as validate_spec
from repro.telemetry.export import (
    PROMETHEUS_CONTENT_TYPE,
    render_json,
    render_prometheus,
)
from repro.telemetry.events import SEVERITIES
from repro.telemetry.instruments import AnalysisTelemetry, PortalTelemetry
from repro.telemetry.registry import MetricsRegistry

__all__ = ["PortalApp", "make_default_app"]

_COOKIE = "portal_session"

#: bus failures come first so they outrank the generic ReproError → 400:
#: a back end that is stopped or stayed busy is the *portal's* fault, not
#: the client's — 503 tells pollers to back off and retry, and the call
#: it answers never ran, so the retry cannot duplicate a submission.
_ERROR_STATUS: list[tuple[type, int]] = [
    (RpcTimeout, 503),
    (BusError, 502),
    (AuthenticationError, 401),
    (AuthorizationError, 403),
    (FileManagerError, 404),
    (ToolchainNotFound, 400),
    (CompilationError, 400),
    (SchedulingError, 400),
    (JobError, 404),
    (PortalError, 400),
    (ReproError, 400),
]


class PortalApp:
    """The WSGI callable.

    Parameters
    ----------
    users, sessions:
        The account store and this process's session store.
    proxy:
        The cluster port: a :class:`~repro.bus.service.LocalCluster`, or
        a :class:`~repro.bus.proxy.ClusterProxy` in a scale-out worker.
    jobsvc:
        The compile-and-run service, over the same port.
    admission:
        Front-door admission control; ``None`` admits everything.
    cache_size:
        Conditional-GET response cache entries; 0 disables it (ETags are
        still emitted, every request renders fresh).
    registry:
        The metrics registry ``/metrics`` serves; ``None`` means a fresh
        one of this app's own.
    worker_id:
        Adds a ``"worker"`` field to login and whoami replies.

    Use :func:`make_default_app` to get a fully assembled portal over a
    simulated cluster.
    """

    def __init__(
        self,
        users: UserStore,
        sessions: SessionStore,
        proxy,
        jobsvc: JobService,
        admission: Optional[AdmissionController] = None,
        cache_size: int = 256,
        registry=None,
        worker_id: Optional[str] = None,
    ) -> None:
        self.users = users
        self.sessions = sessions
        self.proxy = proxy
        self.jobsvc = jobsvc
        self.admission = admission
        self.worker_id = worker_id
        self.router = Router()
        self.cache = ResponseCache(cache_size)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.telemetry = PortalTelemetry(self.registry)
        self.telemetry.bind_router(self.router)
        self.telemetry.bind_sessions(sessions)
        self.cache.bind(self.registry)
        bind_admission(self.registry, admission)
        #: legacy counter key → registry child (same keys as the PR 2 dict).
        self._counters = self.telemetry.c
        self.files: FileManager = jobsvc.files
        #: static-analyzer counters; handed to the job service so both
        #: the explicit lint endpoint and the pre-submit pass are tallied.
        self.analysis_telemetry = AnalysisTelemetry(self.registry)
        jobsvc.analysis_telemetry = self.analysis_telemetry
        # file mutations invalidate the owning user's cached listings,
        # file contents and dashboard in O(1)
        self.files.on_mutation(
            lambda username: self.cache.invalidate(f"files:{username}")
        )
        proxy.on_spec_applied(self._apply_portal_stanzas)
        proxy.on_job_sealed(self._store_sealed_pages)
        self._register_routes()

    # -- WSGI entry ---------------------------------------------------------
    def __call__(self, environ, start_response):
        request = Request(environ)
        tel = self.telemetry
        self._counters["requests"].inc()
        # admission runs before any work: a shed request costs one bucket
        # probe, one small JSON render, and nothing else.  /metrics is
        # exempt — scrapers must see the shed counters *during* overload.
        if self.admission is not None and request.path != "/metrics":
            decision = self.admission.admit(admission_key(request))
            if not decision.admitted:
                response = shed_response(decision)
                if tel.on:
                    tel.responses[response.status].inc()
                return response.to_wsgi(start_response)
        else:
            decision = None
        swept = self.sessions.maybe_sweep()
        if swept:
            self._counters["sessions_swept"].inc(swept)
        if tel.on:
            tel.inflight += 1
            start, t0 = tel.clock(), time.perf_counter()
        try:
            response = self._handle(request)
        except HttpError as exc:
            response = Response.error(exc.status, exc.message)
        except ReproError as exc:
            status = next((s for t, s in _ERROR_STATUS if isinstance(exc, t)), 400)
            response = Response.error(status, str(exc))
            if status == 503:
                # the back end went quiet, not the client's fault: ask
                # pollers to ease off while it recovers.
                response.headers.append(("Retry-After", "1"))
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            response = Response.error(500, f"internal error: {type(exc).__name__}: {exc}")
        finally:
            if decision is not None:
                self.admission.release()
        if tel.on:
            tel.inflight -= 1
            tel.request_done(request, response.status, start, time.perf_counter() - t0)
        return response.to_wsgi(start_response)

    # -- observability -------------------------------------------------------
    def stats(self) -> dict:
        """Portal-side counters, mirroring ``JobDistributor.stats()``.

        The dict shape is the PR 2 contract; the values are now derived
        from the metrics registry (see ``GET /metrics``).
        """
        return {
            "portal": {
                **self.telemetry.portal_counters(),
                **self.router.counters,
                "response_cache": self.cache.stats(),
                "active_sessions": len(self.sessions),
                "admission": (
                    self.admission.stats()
                    if self.admission is not None
                    else {"enabled": False}
                ),
            }
        }

    # -- conditional-GET plumbing ---------------------------------------------
    def _conditional(
        self, req: Request, namespace: str, key, build: Callable[[], Response]
    ) -> Response:
        """Serve a cacheable GET with an ETag, honouring If-None-Match.

        Delegates to the :func:`conditional_get` engine, which stores
        misses under the generation observed at probe time so a racing
        invalidation can never be clobbered by a stale render.
        """
        return conditional_get(self.cache, self._counters, req, namespace, key, build)

    def _store_sealed_pages(self, job_id: str, owner: str, describe: dict, output: dict) -> None:
        """Render a sealed job's describe and output pages once, at the seal.

        The key holds the owner, so only the owner's own read finds them
        (:meth:`_sealed_page`); every other read takes the port path.  An
        entry the LRU evicts, or one too large to store, falls back to it too.
        """
        for kind, page in (("describe", describe), ("output", output)):
            self.cache.store("sealed", (kind, job_id, owner), cached(Response.json(page)))

    def _sealed_page(self, req: Request, kind: str, job_id: str, user: User) -> Optional[Response]:
        """``user``'s sealed ``kind`` page of ``job_id`` from the cache, with
        no port call, or None (not sealed, not theirs, or evicted)."""
        entry = self.cache.peek("sealed", (kind, job_id, user.username))
        if entry is None:
            return None
        self._counters["cache_hits"].inc()
        req.cache = "sealed"
        return serve(entry, self._counters, req)

    def _stream_counted(self, chunks):
        """Pass chunks through while counting bytes for ``stats()``."""
        streamed = self._counters["bytes_streamed"]
        for chunk in chunks:
            streamed.inc(len(chunk))
            yield chunk

    def _handle(self, request: Request) -> Response:
        request.user = self._authenticate(request)
        return self.router.dispatch(request)

    # -- auth middleware -------------------------------------------------------
    @staticmethod
    def _session_token(request: Request) -> str:
        """The session token from the cookie, else a ``Bearer`` header."""
        token = request.cookies().get(_COOKIE)
        if not token:
            bearer = request.header("Authorization")
            if bearer.startswith("Bearer "):
                token = bearer[len("Bearer ") :]
        return token or ""

    def _authenticate(self, request: Request) -> Optional[User]:
        token = self._session_token(request)
        if not token:
            return None
        data = self.sessions.peek(token)
        if data is None:
            return None
        return self.users.get(data.get("username", ""))

    @staticmethod
    def _require_user(request: Request) -> User:
        if request.user is None:
            raise AuthenticationError("login required")
        return request.user

    def _apply_portal_stanzas(self, desired: dict, ops: list) -> None:
        """Retune this app from an applied spec's admission and toolchains."""
        fresh = build_admission(desired) if "set_admission" in ops else None
        if fresh is not None and self.admission is not None:
            for knob in ("rate_per_s", "burst", "max_inflight",
                         "queue_limit", "max_users", "drain_rate_per_s"):
                setattr(self.admission, knob, getattr(fresh, knob))
        if "set_toolchains" in ops:
            self.jobsvc.registry = build_toolchains(desired)

    # -- routes ------------------------------------------------------------------
    def _register_routes(self) -> None:
        r = self.router

        # --- session ---
        r.add("POST", "/api/login", self._api_login)
        r.add("POST", "/api/logout", self._api_logout)
        r.add("GET", "/api/whoami", self._api_whoami)
        r.add("POST", "/api/users", self._api_create_user)
        r.add("POST", "/api/password", self._api_change_password)

        # --- jobs and cluster, through the port ---
        r.add("POST", "/api/jobs", self._api_submit)
        r.add("GET", "/api/jobs", self._api_list_jobs)
        r.add("GET", "/api/jobs/<job_id>", self._api_get_job)
        r.add("GET", "/api/jobs/<job_id>/output", self._api_job_output)
        r.add("POST", "/api/jobs/<job_id>/input", self._api_job_input)
        r.add("POST", "/api/jobs/<job_id>/cancel", self._api_job_cancel)
        r.add("GET", "/api/cluster/status", self._api_cluster_status)
        r.add("GET", "/api/fleet", self._api_fleet)

        # --- observability ---
        r.add("GET", "/metrics", self._metrics)
        r.add("GET", "/debug/requests", self._debug_requests)
        r.add("GET", "/debug/fleet", self._debug_fleet)

        # --- files ---
        r.add("GET", "/api/files", self._api_list_files)
        r.add("DELETE", "/api/files", self._api_delete_file)
        r.add("GET", "/api/files/content", self._api_read_file)
        r.add("PUT", "/api/files/content", self._api_write_file)
        r.add("POST", "/api/files/upload", self._api_upload)
        r.add("POST", "/api/files/mkdir", self._api_mkdir)
        r.add("POST", "/api/files/copy", self._api_copy)
        r.add("POST", "/api/files/move", self._api_move)
        r.add("POST", "/api/files/rename", self._api_rename)
        r.add("GET", "/api/quota", self._api_quota)

        # --- compile, lint, explore ---
        r.add("POST", "/api/compile", self._api_compile)
        r.add("POST", "/api/lint", self._api_lint)
        r.add("POST", "/api/explore", self._api_explore)
        r.add("GET", "/api/explore/<job_id>", self._api_explore_report)

        # --- cluster management ---
        r.add("GET", "/api/cluster/accounting", self._api_cluster_accounting)
        r.add("GET", "/api/cluster/spec", self._api_cluster_spec)
        r.add("POST", "/api/cluster/validate", self._api_cluster_validate)
        r.add("POST", "/api/cluster/reconfigure", self._api_cluster_reconfigure)
        r.add("GET", "/debug/trace/<job_id>", self._debug_trace)
        r.add("GET", "/debug/events", self._debug_events)

        # --- HTML pages ---
        r.add("GET", "/", self._page_dashboard)
        r.add("GET", "/jobs/<job_id>", self._page_job)
        r.add("POST", "/jobs/<job_id>/input", self._page_job_input)
        r.add("GET", "/login", self._page_login)
        r.add("POST", "/login", self._page_do_login)
        r.add("POST", "/logout", self._page_logout)

    # -- session handlers -----------------------------------------------------------
    def _with_worker(self, body: dict) -> dict:
        if self.worker_id is not None:
            body["worker"] = self.worker_id
        return body

    def _api_login(self, req: Request, *, username: str, password: str) -> Response:
        user = self.users.authenticate(username, password)
        token = self.sessions.create({"username": user.username})
        resp = Response.json(self._with_worker(
            {"ok": True, "username": user.username, "role": user.role, "token": token}
        ))
        return resp.set_cookie(_COOKIE, token)

    def _api_logout(self, req: Request) -> Response:
        self.sessions.destroy(self._session_token(req))
        return Response.json({"ok": True}).delete_cookie(_COOKIE)

    def _api_whoami(self, req: Request) -> Response:
        user = self._require_user(req)
        return Response.json(self._with_worker(
            {"username": user.username, "role": user.role, "full_name": user.full_name}
        ))

    def _api_create_user(self, req: Request, *, username: str, password: str,
                         role: str = "student", full_name: str = "") -> Response:
        admin = self._require_user(req)
        admin.require("manage_users")
        user = self.users.add_user(username, password, role=role, full_name=full_name)
        return Response.json({"ok": True, "username": user.username, "role": user.role}, status=201)

    def _api_change_password(self, req: Request, *, old: str, new: str) -> Response:
        user = self._require_user(req)
        self.users.change_password(user.username, old, new)
        return Response.json({"ok": True})

    # -- job handlers (through the port) ------------------------------------------------
    def _api_submit(
        self, req: Request, *, path: str | None = None, language: str | None = None,
        args: tuple[str, ...] = (), stdin: str | None = None, max_retries: int = 0, **spec,
    ) -> Response:
        """Submit an argv job spec as it stands, or, given ``path``, compile
        that file from the user's home and run the artifact.

        Compile-and-run also takes ``language``, ``args``, ``stdin`` and
        ``max_retries``.  The rest of the body is the job spec, validated by
        one :meth:`JobRequest.from_wire` parse before anything compiles or
        crosses the bus.
        """
        user = self._require_user(req)
        spec["owner"] = user.username  # the session decides, not the body
        if stdin is not None:
            spec["stdin_data"] = stdin
        if max_retries < 0:
            raise HttpError(400, f"max_retries must be >= 0, got {max_retries}")
        if max_retries:
            spec["retry"] = {"max_attempts": max_retries + 1}
        if path is not None:
            # the artifact's argv replaces this placeholder
            spec.update(argv=[], timeout_s=spec.get("timeout_s", 120.0))
        try:
            request = JobRequest.from_wire(spec)
        except (ValueError, JobError) as exc:
            raise HttpError(400, f"invalid job spec: {exc}") from None
        if path is None:
            return Response.json({"job": self.proxy.submit(request)}, status=201)
        report, job = self.jobsvc.run(user, path, request, language, args)
        if job is None:
            return Response.json({"compile": report, "job": None}, status=400)
        # pre-submit static analysis (Python sources only, else None);
        # advisory: findings never block the run
        lint = self.jobsvc.lint_report(job["id"])
        return Response.json({"compile": report, "job": job, "lint": lint}, status=201)

    def _api_list_jobs(self, req: Request) -> Response:
        user = self._require_user(req)
        view_all = user.can("view_all_jobs")
        version, _ = self.proxy.control_state()
        key = ("jobs", user.username, view_all, version)
        return self._conditional(
            req,
            "jobs",
            key,
            lambda: Response.json({"jobs": self.proxy.list_jobs(user.username, view_all)}),
        )

    def _api_get_job(self, req: Request) -> Response:
        user = self._require_user(req)
        job_id = req.params["job_id"]
        sealed = self._sealed_page(req, "describe", job_id, user)
        if sealed is not None:
            return sealed
        view_all = user.can("view_all_jobs")
        fp = self.proxy.output_fingerprint(user.username, job_id, view_all)
        key = ("describe", job_id, fp)
        return self._conditional(
            req,
            "jobs",
            key,
            lambda: Response.json(self.proxy.describe(user.username, job_id, view_all)),
        )

    def _api_job_output(self, req: Request) -> Response:
        user = self._require_user(req)
        job_id = req.params["job_id"]
        try:
            since = int(req.query.get("since", "0"))
        except ValueError:
            raise HttpError(400, "since must be an integer") from None
        if since == 0:
            sealed = self._sealed_page(req, "output", job_id, user)
            if sealed is not None:
                return sealed
        view_all = user.can("view_all_jobs")
        # on this pull path the fingerprint doubles as the ownership check:
        # it raises AuthorizationError before any cached bytes could leak,
        # and the key self-versions, so a quiet job serves 304s to its
        # pollers (a sealed page needs no check: it is keyed by its owner)
        fp = self.proxy.output_fingerprint(user.username, job_id, view_all)
        key = ("output", job_id, since, fp)
        return self._conditional(
            req,
            "jobs",
            key,
            lambda: Response.json(
                self.proxy.output_since(user.username, job_id, since, view_all)
            ),
        )

    def _api_job_input(self, req: Request, *, text: str) -> Response:
        user = self._require_user(req)
        self.proxy.send_input(user.username, req.params["job_id"], text, user.can("view_all_jobs"))
        return Response.json({"ok": True})

    def _api_job_cancel(self, req: Request) -> Response:
        user = self._require_user(req)
        ok = self.proxy.cancel(user.username, req.params["job_id"], user.can("view_all_jobs"))
        return Response.json({"ok": ok})

    def _api_cluster_status(self, req: Request) -> Response:
        self._require_user(req)
        # tiny freshness probe: version bumps on every job-state
        # transition, cores_free catches out-of-band grid changes (fault
        # injection); the full status render is paid only on a change
        version, cores_free = self.proxy.control_state()
        key = ("status", version, cores_free)
        return self._conditional(
            req, "cluster", key, lambda: Response.json(self.proxy.status())
        )

    def _api_fleet(self, req: Request) -> Response:
        """Elastic-fleet snapshot: pools, sizes, pending scale, cost."""
        self._require_user(req)
        return Response.json(self.proxy.fleet_status())

    # -- file handlers -----------------------------------------------------------------
    def _api_list_files(self, req: Request) -> Response:
        user = self._require_user(req)
        path = req.query.get("path", "")
        # the directory mtime in the key catches out-of-band writes (job
        # artifacts); the files:<user> namespace catches portal mutations
        fp = self.files.fingerprint(user.username, path)
        return self._conditional(
            req,
            f"files:{user.username}",
            ("list", path, fp),
            lambda: Response.json(
                {"entries": [e.as_dict() for e in self.files.list_dir(user.username, path)]}
            ),
        )

    def _api_read_file(self, req: Request) -> Response:
        user = self._require_user(req)
        path = req.query.get("path", "")
        filename = path.rsplit("/", 1)[-1] or "file"
        resolved, st = self.files.file_entry(user.username, path)
        if req.query.get("download"):
            # stat-validated streaming: a 304 never opens the file, a 200
            # never holds more than one chunk in memory
            etag = f'"{st.st_size}-{st.st_mtime_ns}"'
            validators = [
                ("ETag", etag),
                ("Last-Modified", formatdate(st.st_mtime, usegmt=True)),
            ]
            if req.etag_matches(etag):
                self._counters["not_modified"].inc()
                return Response.not_modified(headers=validators)
            return Response.stream(
                self._stream_counted(self.files.iter_file(resolved)),
                content_length=st.st_size,
                filename=filename,
                headers=validators,
            )

        def build() -> Response:
            content = resolved.read_bytes()
            try:
                return Response.json({"path": path, "content": content.decode("utf-8")})
            except UnicodeDecodeError:
                return Response.download(content, filename)

        key = ("content", path, st.st_size, st.st_mtime_ns)
        return self._conditional(req, f"files:{user.username}", key, build)

    def _api_write_file(self, req: Request) -> Response:
        user = self._require_user(req)
        path = req.query.get("path", "")
        if not path:
            raise HttpError(400, "missing ?path=")
        # chunked spool: an N-byte upload never buffers more than one chunk
        entry = self.files.write_stream(user.username, path, req.iter_body())
        return Response.json({"ok": True, "entry": entry.as_dict()}, status=201)

    def _api_upload(self, req: Request) -> Response:
        user = self._require_user(req)
        saved = []
        for field, (filename, content) in req.multipart().items():
            name = filename or field
            entry = self.files.write(user.username, name, content)
            saved.append(entry.as_dict())
        if not saved:
            raise HttpError(400, "no files in upload")
        return Response.json({"ok": True, "saved": saved}, status=201)

    def _api_mkdir(self, req: Request, *, path: str) -> Response:
        user = self._require_user(req)
        self.files.mkdir(user.username, path)
        return Response.json({"ok": True}, status=201)

    def _api_copy(self, req: Request, *, src: str, dst: str) -> Response:
        user = self._require_user(req)
        self.files.copy(user.username, src, dst)
        return Response.json({"ok": True})

    def _api_move(self, req: Request, *, src: str, dst: str) -> Response:
        user = self._require_user(req)
        self.files.move(user.username, src, dst)
        return Response.json({"ok": True})

    def _api_rename(self, req: Request, *, path: str, new_name: str) -> Response:
        user = self._require_user(req)
        new_path = self.files.rename(user.username, path, new_name)
        return Response.json({"ok": True, "path": new_path})

    def _api_delete_file(self, req: Request) -> Response:
        user = self._require_user(req)
        self.files.delete(user.username, req.query.get("path", ""))
        return Response.json({"ok": True})

    def _api_quota(self, req: Request) -> Response:
        user = self._require_user(req)
        return Response.json(
            {
                "used_bytes": self.files.usage_bytes(user.username),
                "quota_bytes": self.files.quota_bytes,
            }
        )

    # -- compile, lint, explore --------------------------------------------------
    def _api_compile(self, req: Request, *, path: str, language: str | None = None) -> Response:
        user = self._require_user(req)
        report = self.jobsvc.compile(user, path, language)
        return Response.json(report, status=200 if report["ok"] else 400)

    def _api_lint(self, req: Request, *, source: str | None = None,
                  path: str | None = None) -> Response:
        """Static concurrency analysis of a lab program.

        Accepts ``{path}`` (a Python file in the user's home) or
        ``{source}`` (raw program text).  Always 200: diagnostics are
        advisory, the report itself says whether the program is clean.
        """
        user = self._require_user(req)
        if source is not None:
            report = self.jobsvc.lint_source(source, path or "<submission>")
            return Response.json(report.as_dict())
        report = self.jobsvc.lint(user, path or "")
        if report is None:
            raise HttpError(400, "static analysis supports Python lab programs only")
        return Response.json(report.as_dict())

    def _api_explore(
        self, req: Request, *, lab: str, variant: str = "broken", algorithm: str = "dpor",
        max_schedules: int = 2000, max_seconds: float = 30.0,
    ) -> Response:
        """Submit a systematic schedule exploration of a named lab program.

        The exploration runs as a cluster job; poll
        ``GET /api/explore/<job_id>`` for the finished report.
        """
        user = self._require_user(req)
        user.require("submit_job")
        job = self.proxy.explore(
            user.username, lab, variant=variant, algorithm=algorithm,
            max_schedules=max_schedules, max_seconds=max_seconds,
        )
        return Response.json({"job": job}, status=201)

    def _api_explore_report(self, req: Request) -> Response:
        user = self._require_user(req)
        return Response.json(self.proxy.explore_report(
            user.username, req.params["job_id"], user.can("view_all_jobs")
        ))

    # -- cluster management -------------------------------------------------------------
    def _api_cluster_accounting(self, req: Request) -> Response:
        user = self._require_user(req)
        return Response.json(self.proxy.accounting(user.can("view_all_jobs")))

    def _api_cluster_spec(self, req: Request) -> Response:
        """The live deployment serialised as a spec document."""
        self._require_user(req)
        return Response.json({"spec": self.proxy.spec_describe()})

    def _api_cluster_validate(self, req: Request) -> Response:
        """Collect-all static validation of a posted spec document.

        Accepts the document directly or wrapped as ``{"spec": doc}``.
        Always 200: the report itself says whether the spec is clean —
        every violation carries its SPC-* rule id and document path, and
        a document that is not an object is itself a finding.
        """
        self._require_user(req)
        body = req.json()
        doc = body.get("spec", body) if isinstance(body, dict) else body
        return Response.json(validate_spec(doc, source="request").as_dict())

    def _api_cluster_reconfigure(self, req: Request, *, spec: dict,
                                 apply: bool = False) -> Response:
        """Plan (default) or apply a reconfiguration to the live cluster.

        Plan-only returns the classified action list; ``apply: true``
        additionally executes it (400 on an invalid document, 409 when the
        plan needs destroy-recreate actions while jobs are live).
        """
        user = self._require_user(req)
        user.require("manage_cluster")
        result = self.proxy.spec_reconfigure(spec, apply, manage=True)
        if result.get("ok") is False:
            return Response.json(result, status=400 if result["findings"] else 409)
        if apply:
            self.cache.invalidate("cluster")
        return Response.json({"ok": True, **result})

    # -- observability handlers --------------------------------------------------------
    def _metrics(self, req: Request) -> Response:
        """Prometheus text exposition of this app's registry.

        Deliberately unauthenticated (scrapers don't log in) and
        deliberately *not* routed through :meth:`_conditional`: every
        scrape renders a fresh snapshot, no ETag, no response cache.
        """
        if req.query.get("format") == "json":
            return Response.json(render_json(self.registry.snapshot()))
        return Response(
            render_prometheus(self.registry.snapshot()),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    def _debug_requests(self, req: Request) -> Response:
        """The newest 50 portal requests, oldest first (admin debugging)."""
        user = self._require_user(req)
        user.require("view_all_jobs")
        return Response.json({"requests": self.telemetry.recent_requests(50)})

    def _debug_fleet(self, req: Request) -> Response:
        """The fleet manager's scaling-decision log (admin debugging)."""
        user = self._require_user(req)
        user.require("view_all_jobs")
        enabled = bool(self.proxy.fleet_status().get("enabled"))
        return Response.json({"enabled": enabled, "decisions": self.proxy.fleet_log()})

    def _debug_trace(self, req: Request) -> Response:
        """Span tree for one job (owner or privileged viewer only).

        Derived from the job's attempt lineage on demand, so it is
        available for every job the distributor still knows — including
        runs with telemetry disabled.
        """
        user = self._require_user(req)
        job_id = req.params["job_id"]
        trace = self.proxy.job_trace(user.username, job_id, user.can("view_all_jobs"))
        if req.query.get("format") == "json":
            return Response.json({"job_id": job_id, "trace": trace})
        return Response.html(templates.trace_page(job_id, trace))

    def _debug_events(self, req: Request) -> Response:
        """The distributor's structured event log (admin debugging)."""
        user = self._require_user(req)
        severity = req.query.get("severity") or None
        if severity is not None and severity not in SEVERITIES:
            raise HttpError(400, f"severity must be one of {', '.join(SEVERITIES)}")
        return Response.json({"events": self.proxy.events(severity, user.can("view_all_jobs"))})

    # -- HTML page handlers ---------------------------------------------------------------
    def _page_dashboard(self, req: Request) -> Response:
        if req.user is None:
            return Response.redirect("/login")
        user = req.user

        def build() -> Response:
            files = [e.as_dict() for e in self.files.list_dir(user.username)]
            jobs = self.proxy.list_jobs(user.username, user.can("view_all_jobs"))
            status = self.proxy.status()
            return Response.html(templates.dashboard_page(
                user.username, files, jobs, status["grid"], health=status["health"]
            ))

        key = ("dash", *self.proxy.control_state())
        return self._conditional(req, f"files:{user.username}", key, build)

    def _page_job(self, req: Request) -> Response:
        if req.user is None:
            return Response.redirect("/login")
        user, job_id = req.user, req.params["job_id"]
        view_all = user.can("view_all_jobs")
        job = self.proxy.describe(user.username, job_id, view_all)
        out = self.proxy.output_since(user.username, job_id, 0, view_all)
        lint = self.jobsvc.lint_report(job_id)
        return Response.html(
            templates.job_page(job, out["stdout"], out["stderr_tail"], lint=lint)
        )

    def _page_job_input(self, req: Request) -> Response:
        if req.user is None:
            return Response.redirect("/login")
        job_id = req.params["job_id"]
        text = req.form().get("text", "")
        if text:
            self.proxy.send_input(
                req.user.username, job_id, text + "\n", req.user.can("view_all_jobs")
            )
        return Response.redirect(f"/jobs/{job_id}")

    def _page_login(self, req: Request) -> Response:
        return Response.html(templates.login_page())

    def _page_do_login(self, req: Request) -> Response:
        form = req.form()
        try:
            user = self.users.authenticate(form.get("username", ""), form.get("password", ""))
        except AuthenticationError as exc:
            return Response.html(templates.login_page(error=str(exc)), status=401)
        token = self.sessions.create({"username": user.username})
        return Response.redirect("/").set_cookie(_COOKIE, token)

    def _page_logout(self, req: Request) -> Response:
        self.sessions.destroy(self._session_token(req))
        return Response.redirect("/login").delete_cookie(_COOKIE)


def make_default_app(
    root_dir: str,
    cluster_spec=None,
    admin_password: str = "admin-pass",
    quota_bytes: int | None = None,
    cache_size: int = 256,
    admission: Optional[AdmissionController] = None,
) -> PortalApp:
    """Assemble a complete portal over a fresh in-process cluster.

    Creates the grid (paper's 4×16 shape by default), a subprocess
    execution backend, the distributor, stores, and one ``admin``
    account.  The portal shares the distributor's metrics registry, so
    ``/metrics`` serves one snapshot of every subsystem.  This is what
    ``examples/quickstart.py`` and the integration tests call.
    """
    from repro.cluster.backends import SubprocessBackend
    from repro.cluster.grid import Grid
    from repro.cluster.spec import ClusterSpec

    grid = Grid(cluster_spec or ClusterSpec.uhd_default())
    distributor = JobDistributor(grid, SubprocessBackend())
    users = UserStore()
    users.add_user("admin", admin_password, role="admin", full_name="Portal Administrator")
    port = LocalCluster(distributor)
    return PortalApp(
        users,
        SessionStore(),
        port,
        JobService(FileManager(root_dir, quota_bytes=quota_bytes), port),
        admission=admission,
        cache_size=cache_size,
        registry=distributor.telemetry.registry,
    )
