"""Per-layer spans for the system process, recorded from outside ``repro``.

Each span times a call into one layer's public entry point.  The
:class:`Tracer` wraps those entry points on the live objects of one
deployment (instance attributes, or the module global a layer calls
through) when tracing starts, and puts the originals back when it
stops; nothing under ``src/`` knows it is being traced.

* **Front-end spans are linked per request by thread.**  The portal
  server runs every HTTP request on a thread of its own, so a
  thread-local accumulator opened around ``finish_request`` collects the
  WSGI, admission, response-cache, proxy and RPC time of exactly that
  request, and the per-request self times are computed when it closes.
  Around it, the serve loop's ``process_request`` marks the accept and
  ``process_request_thread`` times the thread start and the socket
  close.  The accept and close times are kept as absolute
  ``perf_counter`` readings: that clock is system-wide, so the load
  generator can time the legs outside the system (connect, and the
  return of the response) from its own readings of the same requests.
* **Back-end spans are pooled** per window: the service handlers, the
  distributor, the scheduler, the journal and the execution backend run
  on other threads and serve both workers, and so do the codec and the
  bus queues (a reply may be drained by another request's thread).

Span lists hold seconds; :meth:`Tracer.stop` reduces them to the
per-layer metrics (names and units as in ``BENCHMARK.json``).
"""

from __future__ import annotations

import math
import subprocess
import threading
import time
from typing import Callable

import repro.bus.rpc as rpc_module
import repro.portal.frontend as frontend_module
from metrics import mean as _mean, percentile

__all__ = ["TracedApp", "Tracer"]

perf = time.perf_counter

_SPANS = (
    "http.accepted_at", "http.spawn", "http.close", "http.closed_at",
    "wsgi", "frontend.self", "http.server_self",
    "admission.admit", "respcache.self", "respcache.render",
    "proxy", "req.admission", "req.cache", "req.proxy", "req.rpc", "req.rpc_calls",
    "rpc.call", "codec.fe", "codec.be", "bus.queue_wait",
    "service.handler", "service.freshness", "service.render", "service.submit",
    "dist.submit", "dist.dispatch", "sched.select",
    "journal.append", "journal.fsync",
    "backend.launch", "backend.exit_lag",
)

#: RPC method → service family: cheap freshness probes, reads that
#: render job or cluster state, and submissions.
_FAMILY = {
    "cluster.version": "service.freshness",
    "jobs.fingerprint": "service.freshness",
    "jobs.submit": "service.submit",
}

_PROXY_METHODS = (
    "control_state", "status", "describe", "list_jobs",
    "output_since", "output_fingerprint", "submit",
)

#: the thread the back-end RPC server runs on (``ClusterBackendService.start``).
_SERVICE_THREAD = "cluster-backend"


class _Request:
    """Per-request accumulator (seconds), owned by one server thread."""

    __slots__ = ("wsgi", "admission", "cache", "proxy", "rpc", "rpc_calls")

    def __init__(self) -> None:
        self.wsgi = self.admission = self.cache = self.proxy = self.rpc = 0.0
        self.rpc_calls = 0


class TracedApp:
    """WSGI wrapper served in traced deployments; a pass-through while off."""

    def __init__(self, app, tracer: "Tracer") -> None:
        self.app = app
        self.tracer = tracer

    def __call__(self, environ, start_response):
        req = getattr(self.tracer.local, "req", None)
        if req is None:
            return self.app(environ, start_response)
        t0 = perf()
        try:
            return self.app(environ, start_response)
        finally:
            req.wsgi = perf() - t0


class Tracer:
    """Installs and removes the span wrappers on one deployment."""

    def __init__(self, fleet, dist) -> None:
        self.fleet = fleet
        self.dist = dist
        self.local = threading.local()
        self.spans: dict[str, list] = {name: [] for name in _SPANS}
        self._undo: list[tuple[object, str, object, bool]] = []
        self._sent_at: dict[int, float] = {}
        self._accepted_at: dict[int, float] = {}
        self._start: dict = {}

    # -- patching ---------------------------------------------------------------
    def _patch(self, obj, name: str, make: Callable) -> None:
        orig = getattr(obj, name)
        own = isinstance(getattr(obj, "__dict__", None), dict) and name in vars(obj)
        setattr(obj, name, make(orig))
        self._undo.append((obj, name, orig, own))

    def _timed(self, span: str, field: str = "") -> Callable:
        """Wrapper factory: time each call into ``span``, and into the
        request accumulator's ``field`` when called on a request thread."""
        spans = self.spans[span]
        local = self.local

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    spans.append(dt)
                    if field:
                        req = getattr(local, "req", None)
                        if req is not None:
                            setattr(req, field, getattr(req, field) + dt)

            return wrapper

        return make

    # -- lifecycle ----------------------------------------------------------------
    def start(self, servers: list) -> None:
        """Clear the spans, snapshot the counters and install every wrapper.

        ``servers`` are the deployment's HTTP servers (``start_fleet``).
        """
        self.spans = {name: [] for name in _SPANS}
        self._sent_at.clear()
        self._accepted_at.clear()
        self._start = self._counters()
        for httpd in servers:
            self._patch(httpd, "process_request", self._process_request)
            self._patch(httpd, "process_request_thread", self._process_request_thread)
            self._patch(httpd, "finish_request", self._finish_request)
        for worker in self.fleet.workers:
            if worker.admission is not None:
                self._patch(worker.admission, "admit",
                            self._timed("admission.admit", "admission"))
            for method in _PROXY_METHODS:
                self._patch(worker.proxy, method, self._timed("proxy", "proxy"))
            self._patch(worker.proxy.rpc, "call", self._rpc_call)
        self._patch(frontend_module, "conditional_get", self._conditional_get)
        self._patch(rpc_module, "encode_wire", self._codec)
        self._patch(rpc_module, "decode_wire", self._codec)
        bus = self.fleet.bus
        self._patch(bus, "send", self._bus_send)
        self._patch(bus, "receive", self._bus_receive)
        server = self.fleet.service.server
        # replies leave through on_reply, which captured bus.send at construction
        self._patch(server, "on_reply", lambda _orig: bus.send)
        for method in list(server._handlers):
            handler = server._handlers[method]
            family = self.spans[_FAMILY.get(method, "service.render")]
            server.register(method, self._service_handler(handler, family))
            self._undo.append((server._handlers, method, handler, True))
        dist = self.dist
        self._patch(dist, "submit", self._timed("dist.submit"))
        self._patch(dist, "dispatch", self._timed("dist.dispatch"))
        self._patch(dist.scheduler, "select", self._timed("sched.select"))
        store = dist.journal.store
        self._patch(store, "append", self._timed("journal.append"))
        self._patch(store, "append_payload", self._timed("journal.append"))
        fsync_spans = self.spans["journal.fsync"]

        def observe_fsync(orig):
            def hook(dt: float) -> None:
                fsync_spans.append(dt)
                if orig is not None:
                    orig(dt)
            return hook

        self._patch(store, "observe_fsync", observe_fsync)
        self._patch(dist.backend, "launch", self._launch)
        self._patch(subprocess, "Popen", self._popen)
        self._start["mono"] = dist.now_fn()

    def stop(self) -> dict:
        """Remove every wrapper and reduce the spans to per-layer metrics."""
        for obj, name, orig, own in reversed(self._undo):
            if isinstance(obj, dict):
                obj[name] = orig
            elif own or not hasattr(type(obj), name):
                setattr(obj, name, orig)
            else:
                delattr(obj, name)
        self._undo.clear()
        return self._summary(self._counters())

    # -- wrappers -------------------------------------------------------------------
    def _process_request(self, orig):
        accepted_at = self._accepted_at

        def process_request(request, client_address):
            # on the serve loop's thread, just after accept()
            accepted_at[id(request)] = perf()
            return orig(request, client_address)

        return process_request

    def _process_request_thread(self, orig):
        local = self.local
        accepted_at = self._accepted_at
        spans = self.spans

        def process_request_thread(request, client_address):
            # the request's own thread: finish_request, then shutdown_request
            t_accept = accepted_at.pop(id(request), None)
            local.finished_at = None
            t_run = perf()
            try:
                return orig(request, client_address)
            finally:
                if t_accept is not None and local.finished_at is not None:
                    t_closed = perf()
                    spans["http.accepted_at"].append(t_accept)
                    spans["http.spawn"].append(t_run - t_accept)
                    spans["http.close"].append(t_closed - local.finished_at)
                    spans["http.closed_at"].append(t_closed)

        return process_request_thread

    def _finish_request(self, orig):
        local = self.local
        spans = self.spans

        def finish_request(request, client_address):
            req = local.req = _Request()
            t0 = perf()
            try:
                return orig(request, client_address)
            finally:
                local.finished_at = perf()
                total = local.finished_at - t0
                local.req = None
                if req.wsgi:
                    spans["wsgi"].append(req.wsgi)
                    spans["http.server_self"].append(total - req.wsgi)
                    spans["frontend.self"].append(
                        req.wsgi - req.admission - req.cache - req.proxy
                    )
                    spans["req.admission"].append(req.admission)
                    spans["req.cache"].append(req.cache)
                    spans["req.proxy"].append(req.proxy)
                    spans["req.rpc"].append(req.rpc)
                    spans["req.rpc_calls"].append(req.rpc_calls)

        return finish_request

    def _rpc_call(self, orig):
        local = self.local
        spans = self.spans["rpc.call"]

        def call(*args, **kwargs):
            t0 = perf()
            try:
                return orig(*args, **kwargs)
            finally:
                dt = perf() - t0
                spans.append(dt)
                req = getattr(local, "req", None)
                if req is not None:
                    req.rpc += dt
                    req.rpc_calls += 1

        return call

    def _conditional_get(self, orig):
        local = self.local
        self_spans = self.spans["respcache.self"]
        render_spans = self.spans["respcache.render"]

        def conditional_get(cache, counters, req, namespace, key, build):
            built = 0.0

            def timed_build():
                nonlocal built
                t0 = perf()
                try:
                    return build()
                finally:
                    built = perf() - t0
                    render_spans.append(built)

            t0 = perf()
            try:
                return orig(cache, counters, req, namespace, key, timed_build)
            finally:
                own = perf() - t0 - built
                self_spans.append(own)
                acc = getattr(local, "req", None)
                if acc is not None:
                    acc.cache += own

        return conditional_get

    def _codec(self, orig):
        fe = self.spans["codec.fe"]
        be = self.spans["codec.be"]

        def codec(payload):
            t0 = perf()
            try:
                return orig(payload)
            finally:
                dt = perf() - t0
                if threading.current_thread().name == _SERVICE_THREAD:
                    be.append(dt)
                else:
                    fe.append(dt)

        return codec

    def _bus_send(self, orig):
        sent_at = self._sent_at

        def send(queue, message):
            sent_at[id(message)] = perf()
            return orig(queue, message)

        return send

    def _bus_receive(self, orig):
        sent_at = self._sent_at
        spans = self.spans["bus.queue_wait"]

        def receive(queue, timeout=None):
            item = orig(queue, timeout)
            if item is not None:
                t_sent = sent_at.pop(id(item), None)
                if t_sent is not None:
                    spans.append(perf() - t_sent)
            return item

        return receive

    def _service_handler(self, handler, family: list):
        spans = self.spans["service.handler"]

        def timed(params):
            t0 = perf()
            try:
                return handler(params)
            finally:
                dt = perf() - t0
                spans.append(dt)
                family.append(dt)

        return timed

    def _launch(self, orig):
        lag = self.spans["backend.exit_lag"]

        def launch(job):
            # exit lag: the last stdout line (the process writes it just
            # before exiting) to the stream close that seals the attempt
            stdout = job.stdout
            write_line, close = stdout.write_line, stdout.close
            last = [0.0]

            def traced_write(line):
                write_line(line)
                last[0] = perf()

            def traced_close():
                if last[0]:
                    lag.append(perf() - last[0])
                    last[0] = 0.0
                close()

            stdout.write_line = traced_write
            stdout.close = traced_close
            return orig(job)

        return launch

    def _popen(self, orig):
        spans = self.spans["backend.launch"]

        class TimedPopen(orig):
            """``Popen`` whose constructor (fork + exec) is a span."""

            def __init__(self, *args, **kwargs):
                t0 = perf()
                super().__init__(*args, **kwargs)
                spans.append(perf() - t0)

        return TimedPopen

    # -- reduction ----------------------------------------------------------------------
    def _counters(self) -> dict:
        dist, fleet = self.dist, self.fleet
        qwait = dist.telemetry.h_queue_wait.value
        store = dist.journal.store.stats
        out = {
            **{f"dispatch.{k}": v for k, v in dist.telemetry.counters.items()},
            "qwait_sum": qwait.sum,
            "qwait_count": qwait.count,
            "records": store["records"],
            "fsyncs": store["fsyncs"],
            "bus_sent": fleet.bus.sent,
            "hits": 0, "misses": 0, "stale_drops": 0, "shed": 0,
            "timeouts": 0, "stale_dropped": 0,
            "t": perf(),
        }
        for worker in fleet.workers:
            cache = worker.cache.stats()
            out["hits"] += cache["hits"]
            out["misses"] += cache["misses"]
            out["stale_drops"] += cache["stale_drops"]
            if worker.admission is not None:
                out["shed"] += worker.admission.rejected_429 + worker.admission.rejected_503
            out["timeouts"] += worker.proxy.rpc.timeouts
            out["stale_dropped"] += worker.proxy.rpc.stale_dropped
        return out

    def _summary(self, end: dict) -> dict:
        s, start = self.spans, self._start
        d = {k: end[k] - start[k] for k in end if k != "mono"}
        window = max(d["t"], 1e-9)
        n_req = len(s["wsgi"])
        n_calls = len(s["rpc.call"])
        lookups = d["hits"] + d["misses"]
        codec_per_call = (sum(s["codec.fe"]) + sum(s["codec.be"])) / n_calls if n_calls else 0.0
        wait_per_call = sum(s["bus.queue_wait"]) / n_calls if n_calls else 0.0
        started = d["dispatch.jobs_started"]
        mono = start["mono"]
        runs = [
            j.finished_at - j.started_at
            for j in list(self.dist.jobs.values())
            if j.started_at is not None and j.started_at >= mono
            and j.finished_at is not None
        ]
        ms, us = 1e3, 1e6
        return {
            "frontend.requests": n_req,
            # absolute times (the clock is shared with the load generator)
            "http.linked": len(s["http.accepted_at"]),
            "http.accepted_sum_s": math.fsum(s["http.accepted_at"]),
            "http.closed_sum_s": math.fsum(s["http.closed_at"]),
            "http.spawn_ms": _mean(s["http.spawn"]) * ms,
            "http.close_ms": _mean(s["http.close"]) * ms,
            "wsgi_ms": _mean(s["wsgi"]) * ms,
            "http.server_self_ms": _mean(s["http.server_self"]) * ms,
            "frontend.self_ms": _mean(s["frontend.self"]) * ms,
            "admission.admit_us": _mean(s["admission.admit"]) * us,
            "admission.shed": d["shed"],
            "admission.per_request_ms": _mean(s["req.admission"]) * ms,
            "respcache.hit_ratio": d["hits"] / lookups if lookups else 0.0,
            "respcache.render_ms": _mean(s["respcache.render"]) * ms,
            "respcache.stale_drops": d["stale_drops"],
            "respcache.per_request_ms": _mean(s["req.cache"]) * ms,
            "proxy.per_request_ms": _mean(s["req.proxy"]) * ms,
            "rpc.per_request_ms": _mean(s["req.rpc"]) * ms,
            "rpc.calls_per_request": sum(s["req.rpc_calls"]) / n_req if n_req else 0.0,
            "rpc.call_p50_ms": percentile(s["rpc.call"], 0.50) * ms,
            "rpc.call_p99_ms": percentile(s["rpc.call"], 0.99) * ms,
            "rpc.call_mean_ms": _mean(s["rpc.call"]) * ms,
            "rpc.codec_us": codec_per_call * us,
            "rpc.timeouts": d["timeouts"],
            "rpc.stale_dropped": d["stale_dropped"],
            "bus.queue_wait_ms": wait_per_call * ms,
            "bus.sent_per_request": d["bus_sent"] / n_req if n_req else 0.0,
            "service.handler_ms": _mean(s["service.handler"]) * ms,
            "service.freshness_ms": _mean(s["service.freshness"]) * ms,
            "service.render_ms": _mean(s["service.render"]) * ms,
            "service.submit_ms": _mean(s["service.submit"]) * ms,
            "dist.submit_p50_ms": percentile(s["dist.submit"], 0.50) * ms,
            "dist.submit_p99_ms": percentile(s["dist.submit"], 0.99) * ms,
            "dist.dispatch_ms": _mean(s["dist.dispatch"]) * ms,
            "dist.rounds_per_job": d["dispatch.rounds"] / started if started else 0.0,
            "dist.coalesced_share": (
                d["dispatch.coalesced"] / d["dispatch.requests"]
                if d["dispatch.requests"] else 0.0
            ),
            "dist.queue_wait_ms": (
                d["qwait_sum"] / d["qwait_count"] * ms if d["qwait_count"] else 0.0
            ),
            "sched.select_us": _mean(s["sched.select"]) * us,
            "sched.placements_tried_per_job": (
                d["dispatch.placements_tried"] / started if started else 0.0
            ),
            "journal.append_us": _mean(s["journal.append"]) * us,
            "journal.fsyncs_per_s": d["fsyncs"] / window,
            "journal.fsync_ms": _mean(s["journal.fsync"]) * ms,
            "backend.launch_ms": _mean(s["backend.launch"]) * ms,
            "backend.run_ms": _mean(runs) * ms,
            "backend.exit_lag_ms": _mean(s["backend.exit_lag"]) * ms,
            "window_s": window,
        }
