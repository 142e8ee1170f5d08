"""The front-end's typed view of the remote cluster.

One :class:`ClusterProxy` per front-end worker.  Every method is one
RPC; the proxy also maps remote error types back onto the local
exception classes the portal's HTTP error table already understands, so
a front-end handler body is indistinguishable from the in-process one.
Spec applies that change a portal stanza arrive on the
``cluster.spec.applied`` topic (:meth:`ClusterProxy.on_spec_applied`).
"""

from __future__ import annotations

from repro._errors import (
    AuthorizationError,
    BusError,
    JobError,
    RpcRemoteError,
    SchedulingError,
    SpecError,
)
from json import loads
from typing import Callable

from repro.bus.core import MessageBus
from repro.bus.rpc import RpcClient
from repro.bus.service import DEFAULT_SERVICE_QUEUE, SPEC_TOPIC
from repro.cluster.job import JobRequest

__all__ = ["ClusterProxy"]

#: remote class name → local class to re-raise (defaults to BusError).
_REMOTE_ERRORS = {
    "JobError": JobError,
    "AuthorizationError": AuthorizationError,
    "SchedulingError": SchedulingError,
    "SpecError": SpecError,
}


class ClusterProxy:
    """Client stub for :class:`~repro.bus.service.ClusterBackendService`."""

    def __init__(
        self,
        bus: MessageBus,
        service_queue: str = DEFAULT_SERVICE_QUEUE,
        client_id: str | None = None,
        timeout_s: float = 10.0,
    ) -> None:
        self.rpc = RpcClient(bus, service_queue, client_id)
        self.timeout_s = timeout_s

    def _call(self, method: str, params: dict | None = None):
        try:
            return self.rpc.call(method, params, timeout=self.timeout_s)
        except RpcRemoteError as exc:
            local = _REMOTE_ERRORS.get(exc.remote_type)
            if local is not None:
                raise local(str(exc)) from None
            raise

    # -- cluster-wide ---------------------------------------------------------
    def control_state(self) -> tuple[int, int]:
        """The (version, cores_free) cache-freshness fingerprint."""
        state = self._call("cluster.version")
        return int(state["version"]), int(state["cores_free"])

    def status(self) -> dict:
        return self._call("cluster.status")

    def fleet_status(self) -> dict:
        """Elastic-fleet snapshot (``{"enabled": False}`` when unmanaged)."""
        return self._call("cluster.fleet")

    def fleet_log(self) -> list[dict]:
        """The fleet manager's bounded scaling-decision log."""
        return self._call("cluster.fleet.log")

    # -- declarative spec ------------------------------------------------------
    def spec_describe(self) -> dict:
        """The live deployment as a spec document."""
        return self._call("cluster.spec.describe")

    def spec_reconfigure(self, doc: dict, apply: bool = False, manage: bool = False) -> dict:
        """Plan (default) or apply ``doc``; ``manage`` asserts the caller's
        ``manage_cluster`` capability (enforced service-side)."""
        return self._call(
            "cluster.spec.reconfigure", {"spec": doc, "apply": apply, "manage": manage}
        )

    def on_spec_applied(self, listener: Callable[[dict, list], None]) -> None:
        """Call ``listener(doc, ops)`` for every apply that changes a portal
        stanza, whichever worker asked for it."""

        def deliver(payload: str) -> None:
            event = loads(payload)
            listener(event["spec"], event["ops"])

        self.rpc.bus.subscribe(SPEC_TOPIC, deliver)

    # -- observability --------------------------------------------------------
    def events(self, min_severity: str | None = None, view_all: bool = False) -> list[dict]:
        return self._call("cluster.events", {"min_severity": min_severity, "view_all": view_all})

    def accounting(self, view_all: bool = False) -> dict:
        return self._call("cluster.accounting", {"view_all": view_all})

    def job_trace(self, owner: str, job_id: str, view_all: bool = False) -> dict:
        return self._job_call("jobs.trace", owner, job_id, view_all)

    # -- jobs -----------------------------------------------------------------
    def _job_call(self, method: str, owner: str, job_id: str, view_all: bool, **params):
        """One RPC about one job, on behalf of ``owner``."""
        return self._call(
            method, {"owner": owner, "job_id": job_id, "view_all": view_all, **params}
        )

    def submit(self, request: JobRequest) -> dict:
        """Submit over the bus; returns the new job's ``describe()``."""
        if request.callable is not None:
            raise BusError("callable jobs cannot cross the bus")
        return self._call("jobs.submit", {"request": request.to_wire()})

    def describe(self, owner: str, job_id: str, view_all: bool = False) -> dict:
        return self._job_call("jobs.describe", owner, job_id, view_all)

    def list_jobs(self, owner: str, view_all: bool = False) -> list[dict]:
        return self._call("jobs.list", {"owner": owner, "view_all": view_all})

    def output_since(
        self, owner: str, job_id: str, since: int = 0, view_all: bool = False
    ) -> dict:
        return self._job_call("jobs.output", owner, job_id, view_all, since=since)

    def output_fingerprint(self, owner: str, job_id: str, view_all: bool = False) -> tuple:
        return tuple(self._job_call("jobs.fingerprint", owner, job_id, view_all))

    def send_input(self, owner: str, job_id: str, text: str, view_all: bool = False) -> None:
        self._job_call("jobs.input", owner, job_id, view_all, text=text)

    def cancel(self, owner: str, job_id: str, view_all: bool = False) -> bool:
        return bool(self._job_call("jobs.cancel", owner, job_id, view_all).get("ok"))

    def explore(
        self,
        owner: str,
        lab: str,
        variant: str = "broken",
        algorithm: str = "dpor",
        max_schedules: int = 2000,
        max_seconds: float | None = 30.0,
    ) -> dict:
        return self._call("cluster.explore", {
            "owner": owner, "lab": lab, "variant": variant, "algorithm": algorithm,
            "max_schedules": max_schedules, "max_seconds": max_seconds,
        })

    def explore_report(self, owner: str, job_id: str, view_all: bool = False) -> dict:
        return self._job_call("jobs.explore_report", owner, job_id, view_all)

    def service_stats(self) -> dict:
        return self._call("service.stats")
