"""The scale-out portal front-end tier.

One :class:`FrontendPortal` per worker: a slim WSGI application that
owns *only* front-end state — a session-store replica, a response
cache, an admission controller — and reaches the cluster exclusively
through a :class:`~repro.bus.proxy.ClusterProxy`.  The split follows
the paper's deployment (portal web tier on one host, cluster master on
another) and is what ``benchmarks/bench_scaleout.py`` measures: N
workers overlap their independent (modelled) RPC round trips, so
aggregate capacity grows with the worker count until the CPU
saturates.  An RPC runs the back-end handler on the request's own
thread, one handler at a time across all workers.

Cache freshness without shared memory
-------------------------------------
The monolithic :class:`~repro.portal.app.PortalApp` keys its response
cache on in-process state (``distributor.version``).  A front-end
worker cannot see that, so every cacheable read starts with a *tiny*
freshness RPC — ``cluster.version`` (version + free cores) or
``jobs.fingerprint`` — and uses the reply as the cache key.  A quiet
cluster then costs one small RPC per poll instead of a full status
render and transfer, and the shared :func:`conditional_get` engine
turns matching client validators into 304s exactly as the monolith
does.

Session replication
-------------------
Workers share the token-signing secret and gossip create/destroy events
over a bus topic (:class:`SessionReplicator`), so a student may log in
on worker 0 and poll via worker 3.  Events carry an origin id; a
replica ignores its own publications, which keeps the fan-out loop-free.
"""

from __future__ import annotations

import secrets
import time
from json import dumps, loads
from typing import Callable, Optional

from repro._errors import (
    AuthenticationError,
    BusError,
    ReproError,
    RpcTimeout,
)
from repro.bus.core import MessageBus
from repro.bus.proxy import ClusterProxy
from repro.bus.service import DEFAULT_SERVICE_QUEUE, ClusterBackendService
from repro.cluster.job import JobRequest
from repro.portal.admission import (
    AdmissionController,
    admission_key,
    bind_admission,
    shed_response,
)
from repro.portal.app import _ERROR_STATUS
from repro.portal.auth import User, UserStore
from repro.portal.http import HttpError, Request, Response
from repro.portal.respcache import ResponseCache, conditional_get
from repro.portal.routing import Router
from repro.portal.sessions import SessionStore
from repro.telemetry.export import (
    PROMETHEUS_CONTENT_TYPE,
    render_json,
    render_prometheus,
)
from repro.telemetry.instruments import PortalTelemetry
from repro.telemetry.registry import MetricsRegistry

__all__ = ["SESSION_TOPIC", "FrontendFleet", "FrontendPortal", "SessionReplicator"]

SESSION_TOPIC = "portal.sessions"
_COOKIE = "portal_session"

#: bus failures come first so they outrank the generic ReproError → 400:
#: a back-end that is stopped or stayed busy is the *portal's* fault, not
#: the client's — 503 tells pollers to back off and retry, and the call
#: it answers never ran, so the retry cannot duplicate a submission.
_FRONTEND_ERROR_STATUS: list[tuple[type, int]] = [
    (RpcTimeout, 503),
    (BusError, 502),
    *_ERROR_STATUS,
]


class SessionReplicator:
    """Fan session create/destroy events out to peer stores over the bus."""

    def __init__(
        self,
        bus: MessageBus,
        store: SessionStore,
        origin: str,
        topic: str = SESSION_TOPIC,
    ) -> None:
        self.bus = bus
        self.store = store
        self.origin = origin
        self.topic = topic
        self.published = 0
        self.applied = 0
        self.echoes_ignored = 0
        store.on_create = self._publish_create
        store.on_destroy = self._publish_destroy
        bus.subscribe(topic, self._on_event)

    # -- outbound (local mutations) -----------------------------------------
    def _publish_create(self, sid: str, data: dict) -> None:
        self.published += 1
        self.bus.publish(
            self.topic,
            dumps({"op": "create", "sid": sid, "data": data, "origin": self.origin}),
        )

    def _publish_destroy(self, sid: str) -> None:
        self.published += 1
        self.bus.publish(
            self.topic, dumps({"op": "destroy", "sid": sid, "origin": self.origin})
        )

    # -- inbound (peer mutations) -------------------------------------------
    def _on_event(self, payload) -> None:
        event = loads(payload)
        if event.get("origin") == self.origin:
            # our own publication coming back off the topic
            self.echoes_ignored += 1
            return
        if event.get("op") == "create":
            self.store.apply_create(str(event["sid"]), event.get("data") or {})
        elif event.get("op") == "destroy":
            self.store.apply_destroy(str(event["sid"]))
        self.applied += 1

    def stats(self) -> dict:
        return {
            "published": self.published,
            "applied": self.applied,
            "echoes_ignored": self.echoes_ignored,
        }


class FrontendPortal:
    """One scale-out front-end worker: WSGI over a :class:`ClusterProxy`.

    Endpoint surface (the scale-out read/submit mix):

    ==========  ===============================  ============================
    POST        /api/login                       replicated session + cookie
    POST        /api/logout                      destroy everywhere
    GET         /api/whoami                      current user
    GET         /api/cluster/status              cached via ``cluster.version`` RPC
    POST        /api/jobs                        argv job spec → bus submit
    GET         /api/jobs                        cached via ``cluster.version`` RPC
    GET         /api/jobs/<job_id>               cached via fingerprint RPC
    GET         /api/jobs/<job_id>/output        cached via fingerprint RPC
    POST        /api/jobs/<job_id>/input         forwarded
    POST        /api/jobs/<job_id>/cancel        forwarded
    GET         /metrics                         this worker's registry
    ==========  ===============================  ============================

    File management and compilation stay on the monolithic portal (they
    need the shared home filesystem and toolchains); this tier exists
    to absorb the polling load, which is where the students are.
    """

    def __init__(
        self,
        proxy: ClusterProxy,
        users: UserStore,
        sessions: SessionStore,
        admission: Optional[AdmissionController] = None,
        cache_size: int = 256,
        registry=None,
        worker_id: str = "fe0",
        replicator: Optional[SessionReplicator] = None,
    ) -> None:
        self.proxy = proxy
        self.users = users
        self.sessions = sessions
        self.admission = admission
        self.worker_id = worker_id
        self.replicator = replicator
        self.cache = ResponseCache(cache_size)
        #: each worker owns its registry (scraped via its own /metrics);
        #: pass a NullRegistry to run a worker dark.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.telemetry = PortalTelemetry(self.registry)
        self.cache.bind(self.registry)
        bind_admission(self.registry, admission)
        self._counters = self.telemetry.c
        self.router = Router()
        self._register_routes()

    # -- WSGI entry ----------------------------------------------------------
    def __call__(self, environ, start_response):
        request = Request(environ)
        tel = self.telemetry
        self._counters["requests"].inc()
        if self.admission is not None and request.path != "/metrics":
            decision = self.admission.admit(admission_key(request))
            if not decision.admitted:
                response = shed_response(decision)
                if tel.on:
                    tel.c_responses.labels(response.status).inc()
                return response.to_wsgi(start_response)
        else:
            decision = None
        swept = self.sessions.maybe_sweep()
        if swept:
            self._counters["sessions_swept"].inc(swept)
        if tel.on:
            t0 = time.perf_counter()
            span = tel.request_started(request)
        try:
            response = self._handle(request)
        except HttpError as exc:
            response = Response.error(exc.status, exc.message)
        except ReproError as exc:
            status = next(
                (s for t, s in _FRONTEND_ERROR_STATUS if isinstance(exc, t)), 400
            )
            response = Response.error(status, str(exc))
            if status == 503:
                # the back-end went quiet, not the client's fault: ask
                # pollers to ease off while it recovers.
                response.headers.append(("Retry-After", "1"))
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            response = Response.error(500, f"internal error: {type(exc).__name__}: {exc}")
        finally:
            if decision is not None:
                self.admission.release()
        if tel.on:
            route = getattr(request, "route", None) or "unmatched"
            tel.request_done(span, route, response.status, time.perf_counter() - t0)
        return response.to_wsgi(start_response)

    def _handle(self, request: Request) -> Response:
        request.user = self._authenticate(request)
        return self.router.dispatch(request)

    # -- auth ----------------------------------------------------------------
    def _authenticate(self, request: Request) -> Optional[User]:
        token = request.cookies().get(_COOKIE)
        if not token:
            bearer = request.header("Authorization")
            if bearer.startswith("Bearer "):
                token = bearer[len("Bearer ") :]
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

    # -- plumbing ------------------------------------------------------------
    def _conditional(
        self, req: Request, namespace: str, key, build: Callable[[], Response]
    ) -> Response:
        return conditional_get(self.cache, self._counters, req, namespace, key, build)

    def _register_routes(self) -> None:
        r = self.router
        r.add("POST", "/api/login", self._api_login)
        r.add("POST", "/api/logout", self._api_logout)
        r.add("GET", "/api/whoami", self._api_whoami)
        r.add("GET", "/api/cluster/status", self._api_cluster_status)
        r.add("POST", "/api/jobs", self._api_submit)
        r.add("GET", "/api/jobs", self._api_list_jobs)
        r.add("GET", "/api/jobs/<job_id>", self._api_get_job)
        r.add("GET", "/api/jobs/<job_id>/output", self._api_job_output)
        r.add("POST", "/api/jobs/<job_id>/input", self._api_job_input)
        r.add("POST", "/api/jobs/<job_id>/cancel", self._api_job_cancel)
        r.add("GET", "/metrics", self._metrics)

    # -- session handlers ----------------------------------------------------
    def _api_login(self, req: Request) -> Response:
        body = req.json()
        user = self.users.authenticate(
            body.get("username", ""), body.get("password", "")
        )
        token = self.sessions.create({"username": user.username})
        resp = Response.json(
            {"ok": True, "username": user.username, "role": user.role, "token": token,
             "worker": self.worker_id}
        )
        return resp.set_cookie(_COOKIE, token)

    def _api_logout(self, req: Request) -> Response:
        token = req.cookies().get(_COOKIE, "")
        if not token:
            bearer = req.header("Authorization")
            if bearer.startswith("Bearer "):
                token = bearer[len("Bearer ") :]
        self.sessions.destroy(token)
        return Response.json({"ok": True}).delete_cookie(_COOKIE)

    def _api_whoami(self, req: Request) -> Response:
        user = self._require_user(req)
        return Response.json(
            {"username": user.username, "role": user.role,
             "full_name": user.full_name, "worker": self.worker_id}
        )

    # -- cluster / job handlers ----------------------------------------------
    def _api_cluster_status(self, req: Request) -> Response:
        self._require_user(req)
        # tiny freshness RPC; the full status render + transfer is paid
        # only when the cluster actually changed
        version, cores_free = self.proxy.control_state()
        key = ("status", version, cores_free)
        return self._conditional(
            req, "cluster", key, lambda: Response.json(self.proxy.status())
        )

    def _api_submit(self, req: Request) -> Response:
        user = self._require_user(req)
        body = req.json()
        if not isinstance(body, dict):
            raise HttpError(400, "job spec must be a JSON object")
        wire = dict(body)
        wire["owner"] = user.username  # the session decides, not the body
        request = JobRequest.from_wire(wire)  # validate before crossing the bus
        return Response.json({"job": self.proxy.submit(request)}, status=201)

    def _api_list_jobs(self, req: Request) -> Response:
        user = self._require_user(req)
        view_all = user.can("view_all_jobs")
        version, _ = self.proxy.control_state()
        key = ("jobs", user.username, view_all, version)
        return self._conditional(
            req,
            "jobs",
            key,
            lambda: Response.json(
                {"jobs": self.proxy.list_jobs(user.username, view_all)}
            ),
        )

    def _api_get_job(self, req: Request) -> Response:
        user = self._require_user(req)
        job_id = req.params["job_id"]
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
        view_all = user.can("view_all_jobs")
        # the fingerprint RPC doubles as the ownership check: it raises
        # AuthorizationError before any cached bytes could leak
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

    def _api_job_input(self, req: Request) -> Response:
        user = self._require_user(req)
        self.proxy.send_input(
            user.username,
            req.params["job_id"],
            req.json().get("text", ""),
            user.can("view_all_jobs"),
        )
        return Response.json({"ok": True})

    def _api_job_cancel(self, req: Request) -> Response:
        user = self._require_user(req)
        ok = self.proxy.cancel(
            user.username, req.params["job_id"], user.can("view_all_jobs")
        )
        return Response.json({"ok": ok})

    # -- observability -------------------------------------------------------
    def _metrics(self, req: Request) -> Response:
        if req.query.get("format") == "json":
            return Response.json(render_json(self.registry.snapshot()))
        return Response(
            render_prometheus(self.registry.snapshot()),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    def stats(self) -> dict:
        out = {
            "worker": self.worker_id,
            **self.telemetry.portal_counters(),
            **self.router.counters,
            "response_cache": self.cache.stats(),
            "active_sessions": len(self.sessions),
            "sessions_replicated_in": self.sessions.replicated_in,
            "admission": (
                self.admission.stats()
                if self.admission is not None
                else {"enabled": False}
            ),
        }
        if self.replicator is not None:
            out["replication"] = self.replicator.stats()
        return out


class FrontendFleet:
    """N front-end workers + one back-end service on a shared bus.

    The deployment unit the capacity benchmark scales: construct with
    ``n_workers``, :meth:`start`, drive each ``fleet.workers[i]`` as an
    independent WSGI app (or via :class:`~repro.portal.client.PortalClient`),
    :meth:`stop`.  All workers share one :class:`UserStore` and one
    token secret; sessions replicate over ``portal.sessions``.
    """

    def __init__(
        self,
        distributor,
        n_workers: int = 2,
        bus: Optional[MessageBus] = None,
        users: Optional[UserStore] = None,
        reply_latency_s: float = 0.0,
        admission_factory: Optional[Callable[[int], AdmissionController]] = None,
        cache_size: int = 256,
        rpc_timeout_s: float = 10.0,
        service_queue: str = DEFAULT_SERVICE_QUEUE,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.bus = bus if bus is not None else MessageBus()
        self.service = ClusterBackendService(
            self.bus, distributor, service_queue, reply_latency_s=reply_latency_s
        )
        self.users = users if users is not None else UserStore()
        secret = secrets.token_bytes(32)
        self.workers: list[FrontendPortal] = []
        for i in range(n_workers):
            worker_id = f"fe{i}"
            sessions = SessionStore(secret=secret)
            replicator = SessionReplicator(self.bus, sessions, worker_id)
            self.workers.append(
                FrontendPortal(
                    ClusterProxy(
                        self.bus, service_queue, client_id=worker_id,
                        timeout_s=rpc_timeout_s,
                    ),
                    self.users,
                    sessions,
                    admission=(
                        admission_factory(i) if admission_factory is not None else None
                    ),
                    cache_size=cache_size,
                    worker_id=worker_id,
                    replicator=replicator,
                )
            )

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "FrontendFleet":
        self.service.start()
        return self

    def stop(self) -> None:
        self.service.stop()

    def __enter__(self) -> "FrontendFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- observability -------------------------------------------------------
    def stats(self) -> dict:
        return {
            "workers": [w.stats() for w in self.workers],
            "bus": self.bus.stats(),
            "service": {
                "requests_served": self.service.server.requests_served,
                "errors_returned": self.service.server.errors_returned,
                "reply_latency_s": self.service.reply_latency_s,
            },
        }
