"""The scale-out portal tier: N front-end workers over one back end.

:class:`FrontendFleet` builds N :class:`~repro.portal.app.PortalApp`
workers, each reaching the cluster through its own
:class:`~repro.bus.proxy.ClusterProxy`, plus one
:class:`~repro.bus.service.ClusterBackendService` on a shared bus.  The
split follows the paper's deployment (portal web tier on one host,
cluster master on another) and is what ``benchmarks/bench_scaleout.py``
measures: N workers overlap their independent (modelled) RPC round
trips, so aggregate capacity grows with the worker count until the CPU
saturates.  An RPC runs the back-end handler on the request's own
thread, one handler at a time across all workers.

A worker is the same app as the monolith, with the same routes.  The
workers share one :class:`~repro.portal.files.FileManager` over
``home_root`` (the in-process stand-in for an NFS home mount, so quota
accounting and ``files:<user>`` cache invalidation span workers); each
has its own :class:`~repro.portal.jobsvc.JobService`, so a pre-submit
lint report lives on the worker that took the submission.  Every
cacheable read starts with a *tiny* freshness RPC
— ``cluster.version`` (version + free cores) or ``jobs.fingerprint`` —
and uses the reply as the cache key, exactly as the monolith keys on
its in-process port.  A quiet cluster then costs one small RPC per poll
instead of a full status render and transfer.

Session replication
-------------------
Workers share the token-signing secret and gossip create/destroy events
over a bus topic (:class:`SessionReplicator`), so a student may log in
on worker 0 and poll via worker 3.  Events carry an origin id; a
replica ignores its own publications, which keeps the fan-out loop-free.
"""

from __future__ import annotations

import secrets
import tempfile
from json import dumps, loads
from typing import Callable, Optional

from repro.bus.core import MessageBus
from repro.bus.proxy import ClusterProxy
from repro.bus.service import DEFAULT_SERVICE_QUEUE, ClusterBackendService
from repro.portal.admission import AdmissionController
from repro.portal.app import PortalApp
from repro.portal.auth import UserStore
from repro.portal.files import FileManager
from repro.portal.jobsvc import JobService

# The portal calls conditional_get from repro.portal.app now; the name
# stays importable here because external tracers patch this module's copy.
from repro.portal.respcache import conditional_get  # noqa: F401
from repro.portal.sessions import SessionStore

__all__ = ["SESSION_TOPIC", "FrontendFleet", "SessionReplicator"]

SESSION_TOPIC = "portal.sessions"


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


class FrontendFleet:
    """N front-end workers + one back-end service on a shared bus.

    The deployment unit the capacity benchmark scales: construct with
    ``n_workers``, :meth:`start`, drive each ``fleet.workers[i]`` (a
    :class:`PortalApp` over a :class:`ClusterProxy`, with a registry of
    its own) as an independent WSGI app or via
    :class:`~repro.portal.client.PortalClient`, :meth:`stop`.  All workers
    share one :class:`UserStore`, one token secret and the home
    directories under ``home_root`` (a fresh temporary directory when
    ``None``); sessions replicate over ``portal.sessions``.
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
        home_root: Optional[str] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.bus = bus if bus is not None else MessageBus()
        self.service = ClusterBackendService(
            self.bus, distributor, service_queue, reply_latency_s=reply_latency_s
        )
        self.users = users if users is not None else UserStore()
        self.files = FileManager(home_root or tempfile.mkdtemp(prefix="fleet_homes_"))
        secret = secrets.token_bytes(32)
        self.workers: list[PortalApp] = []
        self.replicators: list[SessionReplicator] = []
        for i in range(n_workers):
            worker_id = f"fe{i}"
            sessions = SessionStore(secret=secret)
            self.replicators.append(SessionReplicator(self.bus, sessions, worker_id))
            proxy = ClusterProxy(
                self.bus, service_queue, client_id=worker_id, timeout_s=rpc_timeout_s
            )
            self.workers.append(
                PortalApp(
                    self.users,
                    sessions,
                    proxy,
                    JobService(self.files, proxy),
                    admission=(
                        admission_factory(i) if admission_factory is not None else None
                    ),
                    cache_size=cache_size,
                    worker_id=worker_id,
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
            "workers": [
                {"worker": w.worker_id, **w.stats(), "replication": r.stats()}
                for w, r in zip(self.workers, self.replicators)
            ],
            "bus": self.bus.stats(),
            "service": {
                "requests_served": self.service.server.requests_served,
                "errors_returned": self.service.server.errors_returned,
                "reply_latency_s": self.service.reply_latency_s,
            },
        }
