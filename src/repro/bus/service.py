"""The cluster port, declared once, and the back-end service that serves it.

:class:`LocalCluster` is the *cluster port* over an in-process
:class:`JobDistributor`: the method set the portal reaches the cluster
through — freshness probe, status, checkpoint, durability, submit,
describe, output polling, input, cancel, exploration, traces, events,
accounting, fleet and spec.  Its typed signatures are the port's only
declaration: :data:`CLUSTER_PORT` names the RPC that carries each method,
and both transports are built from that table, so one
:class:`~repro.portal.app.PortalApp` runs over either.  The monolith holds
a ``LocalCluster`` (zero hops); a scale-out worker holds a
:class:`~repro.bus.proxy.ClusterProxy`, whose stubs are generated from it.

Every check on a call's values lives in ``LocalCluster``, so both
transports run it: the one ownership check (:meth:`LocalCluster.job`:
every job method takes the calling user and a ``view_all`` capability
flag; the event log and accounting need ``view_all``), an owner on every
submission, a known ``min_severity``, and the ``manage_cluster``
capability a reconfigure asserts.  A spec apply that changes a portal
stanza (admission, toolchains) reaches each app through
:meth:`LocalCluster.on_spec_applied`; the back-end service republishes
it on :data:`SPEC_TOPIC` for the workers.  In the same way a sealed job's
describe and output pages reach each app once, at the seal, through
:meth:`LocalCluster.on_job_sealed`, republished on :data:`SEALED_TOPIC`:
a sealed job never changes again, so an app can serve its owner's reads
of it with no port call.

:class:`ClusterBackendService` is the only thing on the cluster side of
the bus.  It registers one generic handler per :data:`CLUSTER_PORT`
entry.  It checks the wire with a :class:`~repro.wire.Fields` codec read
once from the method's signature (:class:`PortCall`), the same codec
that checks HTTP bodies and rebuilds a :class:`JobRequest`, and refuses
a missing, unknown or wrongly typed parameter with :class:`BusError`
before the method runs.  A ``null`` parameter is an absent one.  The
handler is one frame around the codec's one-frame check: neither calls
anything per parameter of a plain type (``str``, ``int``, ``bool``...).

``reply_latency_s`` models the control-plane round trip a real cluster
imposes (the paper's portal talks to its cluster over a network; our
distributor is an in-process simulation).  Handlers run one at a time
on the callers' threads (:class:`~repro.bus.rpc.RpcServer`), and each
caller then sleeps the modelled latency outside the server's lock, so N
outstanding requests from N front-end workers overlap their waits
exactly the way they would against a remote master node.  This is what
the scale-out capacity model in ``benchmarks/bench_scaleout.py``
measures.
"""

from __future__ import annotations

import inspect
from json import dumps
from typing import Any, Callable, get_origin, get_type_hints

from repro._errors import AuthorizationError, BusError, JobError, SpecError
from repro.bus.core import MessageBus
from repro.bus.rpc import RpcServer, encode_wire
from repro.cluster.distributor import JobDistributor
from repro.cluster.job import Job, JobKind, JobRequest
from repro.spec import Reconfigurer
from repro.telemetry.events import SEVERITIES
from repro.wire import Fields

__all__ = ["CLUSTER_PORT", "ClusterBackendService", "DEFAULT_SERVICE_QUEUE", "LocalCluster",
           "PORT_CALLS", "PortCall", "SEALED_TOPIC", "SPEC_TOPIC"]

DEFAULT_SERVICE_QUEUE = "cluster.backend"

#: bus topic carrying every applied spec that changes a portal stanza
SPEC_TOPIC = "cluster.spec.applied"

#: bus topic carrying every sealed job's describe and output pages
SEALED_TOPIC = "cluster.jobs.sealed"

#: plan ops the portal applies to itself, not the cluster
_PORTAL_OPS = ("set_admission", "set_toolchains")

#: cap on retained exploration reports (oldest evicted first).
_MAX_EXPLORE_REPORTS = 256

_EXPLORE_ALGORITHMS = ("dpor", "naive", "dpor-distributed")


class LocalCluster:
    """The cluster port over an in-process distributor (the zero-hop transport)."""

    def __init__(self, distributor: JobDistributor) -> None:
        self.distributor = distributor
        #: declarative-spec management: the one Reconfigurer per distributor
        self.reconfigurer = Reconfigurer(distributor)
        self._spec_listeners: list[Callable[[dict, list], None]] = []
        self._sealed_listeners: list[Callable[[str, str, dict, dict], None]] = []
        #: job id → finished exploration report dict.
        self._explore_reports: dict[str, dict] = {}

    def job(self, owner: str, job_id: str, view_all: bool = False) -> Job:
        """The live job ``owner`` may see: the one ownership check."""
        job = self.distributor.job(job_id)
        if job.request.owner != owner and not view_all:
            raise AuthorizationError(f"job {job_id} belongs to {job.request.owner!r}")
        return job

    # -- cluster-wide ---------------------------------------------------------
    def control_state(self) -> tuple[int, int]:
        """The (version, cores_free) cache-freshness fingerprint."""
        dist = self.distributor
        return dist.version, dist.grid.cores_free

    def status(self) -> dict:
        return self.distributor.stats()

    def checkpoint(self) -> dict:
        """Force a journal snapshot + compaction now (e.g. pre-upgrade)."""
        return self.distributor.checkpoint()

    def durability(self) -> dict:
        """Journal/recovery counters (``{"enabled": False}`` when off)."""
        return self.distributor.durability_stats()

    def fleet_status(self) -> dict:
        """Elastic-fleet snapshot (``{"enabled": False}`` when unmanaged)."""
        fleet = self.distributor.fleet
        return {"enabled": False} if fleet is None else fleet.snapshot()

    def fleet_log(self) -> list[dict]:
        """The fleet manager's bounded scaling-decision log."""
        fleet = self.distributor.fleet
        return [] if fleet is None else fleet.decision_log()

    # -- declarative spec ------------------------------------------------------
    def spec_describe(self) -> dict:
        """The live deployment as a spec document."""
        return self.reconfigurer.describe()

    def spec_reconfigure(self, doc: dict, apply: bool = False, manage: bool = False) -> dict:
        """Plan (default) or apply ``doc``; ``manage`` asserts the caller's
        ``manage_cluster`` capability.

        A document the planner refuses answers ``{"ok": False, "error",
        "findings"}``: the findings say why, on either transport.
        """
        if not manage:
            raise AuthorizationError("cluster.spec.reconfigure needs manage_cluster")
        try:
            if not apply:
                return {"applied": False, "plan": self.reconfigurer.plan(doc).as_dict()}
            result = {"applied": True, **self.reconfigurer.apply(doc)}
        except SpecError as exc:
            return {"ok": False, "error": str(exc),
                    "findings": [f.as_dict() for f in exc.findings]}
        ops = [a["op"] for a in result["plan"]["actions"] if a["op"] in _PORTAL_OPS]
        if ops:
            for listener in self._spec_listeners:
                listener(doc, ops)
        return result

    def on_spec_applied(self, listener: Callable[[dict, list], None]) -> None:
        """Call ``listener(doc, ops)`` after every apply whose plan changes a
        portal stanza; ``ops`` are those plan ops."""
        self._spec_listeners.append(listener)

    def on_job_sealed(self, listener: Callable[[str, str, dict, dict], None]) -> None:
        """Call ``listener(job_id, owner, describe, output)`` once for every
        job sealed from now on, outside the distributor's lock.

        ``describe`` and ``output`` are what :meth:`describe` and
        ``output_since(owner, job_id, 0)`` answer for the sealed job, which
        never changes again.
        """
        if not self._sealed_listeners:
            self.distributor.on_sealed(self._job_sealed)
        self._sealed_listeners.append(listener)

    def _job_sealed(self, job: Job) -> None:
        owner = job.request.owner
        describe = self.describe(owner, job.id)
        output = self.output_since(owner, job.id, 0)
        for listener in self._sealed_listeners:
            listener(job.id, owner, describe, output)

    # -- observability --------------------------------------------------------
    def events(self, min_severity: str | None = None, view_all: bool = False) -> list[dict]:
        """The newest 200 records of the distributor's event log."""
        if not view_all:
            raise AuthorizationError("the event log needs view_all_jobs")
        if min_severity is not None and min_severity not in SEVERITIES:
            raise BusError(f"min_severity must be one of {', '.join(SEVERITIES)}")
        events = self.distributor.telemetry.events.snapshot(min_severity=min_severity, limit=200)
        return [e.as_dict() for e in events]

    def accounting(self, view_all: bool = False) -> dict:
        """Finished-job accounting: the summary and the newest 200 records."""
        if not view_all:
            raise AuthorizationError("accounting needs view_all_jobs")
        monitor = self.distributor.monitor
        fields = ("job_id", "name", "owner", "state", "total_cores", "wait_s", "runtime_s")
        return {
            "summary": monitor.summary(),
            "records": [{f: getattr(rec, f) for f in fields} for rec in monitor.records[-200:]],
        }

    def job_trace(self, owner: str, job_id: str, view_all: bool = False) -> dict:
        """The job's span tree, derived from its attempt lineage."""
        job = self.job(owner, job_id, view_all)
        return self.distributor.telemetry.job_trace(job).as_dict()

    # -- jobs -----------------------------------------------------------------
    def submit(self, request: JobRequest) -> dict:
        """Submit; returns the new job's ``describe()``."""
        if not request.owner:
            raise JobError("a submission must carry an owner")
        return self.distributor.submit(request).describe()

    def describe(self, owner: str, job_id: str, view_all: bool = False) -> dict:
        return self.job(owner, job_id, view_all).describe()

    def list_jobs(self, owner: str, view_all: bool = False) -> list[dict]:
        """``owner``'s jobs (every job with ``view_all``), oldest first."""
        jobs = self.distributor.jobs.values()
        if not view_all:
            jobs = [j for j in jobs if j.request.owner == owner]
        return [j.describe() for j in jobs]

    def output_since(
        self, owner: str, job_id: str, since: int = 0, view_all: bool = False
    ) -> dict:
        """Poll stdout/stderr from absolute line offset ``since``."""
        job = self.job(owner, job_id, view_all)
        out, out_next, out_trunc = job.stdout.read_since(since)
        return {
            "state": job.state.value,
            "stdout": out,
            "next": out_next,
            "truncated": out_trunc,
            # tail() copies just the 50 lines shown, not the whole buffer
            "stderr_tail": job.stderr.tail(50),
            "exit_code": job.exit_code,
            "error": job.error,
            "attempt": job.attempt_epoch,
            "retries": max(0, job.attempt_epoch - 1),
            "attempts": [a.as_dict() for a in job.attempts],
        }

    def output_fingerprint(self, owner: str, job_id: str, view_all: bool = False) -> tuple:
        """Cheap change-detector for a job's describe and output.

        Any visible change to :meth:`describe` or :meth:`output_since`
        moves at least one of these fields, so the portal can key its
        response cache on the tuple and serve 304s to repeat pollers of a
        quiet job.  Doubles as the ownership check for those polls.
        """
        job = self.job(owner, job_id, view_all)
        return (
            job.state.value,
            job.stdout.next_index,
            job.stderr.next_index,
            job.exit_code,
            # A retry changes the lineage even when the streams are quiet.
            job.attempt_epoch,
            len(job.attempts),
        )

    def send_input(self, owner: str, job_id: str, text: str, view_all: bool = False) -> None:
        """Feed stdin to an interactive job."""
        job = self.job(owner, job_id, view_all)
        if job.stdin.closed:
            raise JobError(f"job {job_id} does not accept input (not interactive or finished)")
        job.stdin.write(text)

    def cancel(self, owner: str, job_id: str, view_all: bool = False) -> bool:
        return self.distributor.cancel(self.job(owner, job_id, view_all).id)

    # -- schedule exploration ------------------------------------------------
    def explore(
        self,
        owner: str,
        lab: str,
        variant: str = "broken",
        algorithm: str = "dpor",
        max_schedules: int = 2000,
        max_seconds: float = 30.0,
    ) -> dict:
        """Submit a schedule exploration of a :mod:`repro.labs.explore`
        program as a cluster job; returns its ``describe()``.

        ``algorithm`` is ``"dpor"``, ``"naive"`` (plain DFS) or
        ``"dpor-distributed"`` (worker jobs fan out onto this cluster).
        """
        if algorithm not in _EXPLORE_ALGORITHMS:
            raise JobError(
                f"unknown exploration algorithm {algorithm!r} "
                f"(expected one of {', '.join(_EXPLORE_ALGORITHMS)})"
            )
        if max_schedules < 1:
            raise JobError(f"max_schedules must be >= 1, got {max_schedules}")
        from repro.labs.explore import program

        try:
            factory = program(lab, variant)
        except KeyError as exc:
            raise JobError(str(exc)) from None
        dist = self.distributor

        def run_explore(job: Job) -> dict:
            if algorithm == "dpor-distributed":
                from repro.cluster.workloads import ExploreJobSpec, run_exploration

                res = run_exploration(
                    dist,
                    factory,
                    ExploreJobSpec(
                        partitions=2, seed_schedules=4, wave_budget=max_schedules
                    ),
                )
            else:
                from repro.interleave.explorer import explore as explore_schedules
                from repro.telemetry.instruments import ExploreTelemetry

                res = explore_schedules(
                    factory,
                    max_schedules=max_schedules,
                    strategy="dpor" if algorithm == "dpor" else "dfs",
                    max_seconds=max_seconds,
                )
                # the distributed run records itself
                ExploreTelemetry(dist.telemetry.registry).record(res)
            report = res.as_dict()
            report.update({"lab": lab, "variant": variant, "requested_algorithm": algorithm})
            self._explore_reports[job.id] = report
            while len(self._explore_reports) > _MAX_EXPLORE_REPORTS:
                self._explore_reports.pop(next(iter(self._explore_reports)))
            job.stdout.write_line(res.summary())
            return report

        request = JobRequest(
            name=f"explore-{lab}-{variant}",
            owner=owner,
            kind=JobKind.SEQUENTIAL,
            callable=run_explore,
        )
        return dist.submit(request).describe()

    def explore_report(self, owner: str, job_id: str, view_all: bool = False) -> dict:
        """The finished exploration report, or the job's state while it runs."""
        job = self.job(owner, job_id, view_all)
        report = self._explore_reports.get(job.id)
        if report is None:
            return {"state": job.state.value, "ready": False, "error": job.error}
        return {"state": job.state.value, "ready": True, "report": report}


#: The cluster port: each RPC name and the :class:`LocalCluster` method it
#: runs.  The one list of port methods both transports are built from.
CLUSTER_PORT: dict[str, str] = {
    "cluster.version": "control_state",
    "cluster.status": "status",
    "cluster.checkpoint": "checkpoint",
    "cluster.durability": "durability",
    "cluster.fleet": "fleet_status",
    "cluster.fleet.log": "fleet_log",
    "cluster.spec.describe": "spec_describe",
    "cluster.spec.reconfigure": "spec_reconfigure",
    "cluster.events": "events",
    "cluster.accounting": "accounting",
    "cluster.explore": "explore",
    "jobs.submit": "submit",
    "jobs.describe": "describe",
    "jobs.list": "list_jobs",
    "jobs.output": "output_since",
    "jobs.fingerprint": "output_fingerprint",
    "jobs.input": "send_input",
    "jobs.cancel": "cancel",
    "jobs.trace": "job_trace",
    "jobs.explore_report": "explore_report",
}


class PortCall:
    """One port method's wire form, read once from its signature."""

    def __init__(self, rpc: str, method: str) -> None:
        self.rpc = rpc
        self.method = method
        self.function = fn = getattr(LocalCluster, method)
        params = list(inspect.signature(fn).parameters.values())[1:]  # drop self
        #: the parameters' codec, in declaration order (the stubs' positional order)
        self.fields = Fields.of_parameters(fn, params)
        self.names = self.fields.names
        returns = get_type_hints(fn).get("return")
        #: JSON turns a tuple into a list; the stub turns it back
        self.tuple_reply = returns is tuple or get_origin(returns) is tuple

    def handler(self, cluster: LocalCluster) -> Callable[[dict], Any]:
        """The RPC handler: check the wire ``params`` (:class:`BusError` for a
        missing required parameter, an unknown one or a wrong type), then
        run the method on ``cluster``."""
        method, decode, rpc = getattr(cluster, self.method), self.fields.decode, self.rpc
        accepted = frozenset(self.names)

        def handle(params: dict) -> Any:
            for name in params:
                if name not in accepted:
                    unknown = sorted(set(params) - accepted)
                    raise BusError(f"{rpc}: unknown parameter(s) {', '.join(unknown)}")
            try:
                arguments = decode(params)
            except ValueError as exc:
                raise BusError(f"{rpc}: {exc}") from None
            return method(**arguments)

        return handle


#: RPC name → its resolved :class:`PortCall`
PORT_CALLS: dict[str, PortCall] = {rpc: PortCall(rpc, m) for rpc, m in CLUSTER_PORT.items()}


class ClusterBackendService:
    """Back-end service: a :class:`LocalCluster` behind an RPC queue."""

    def __init__(
        self,
        bus: MessageBus,
        distributor: JobDistributor,
        service_queue: str = DEFAULT_SERVICE_QUEUE,
        reply_latency_s: float = 0.0,
    ) -> None:
        self.bus = bus
        self.distributor = distributor
        self.cluster = cluster = LocalCluster(distributor)
        cluster.on_spec_applied(
            lambda doc, ops: bus.publish(SPEC_TOPIC, dumps({"spec": doc, "ops": ops}))
        )
        # the pages travel as the wire text their pull-path replies would be
        cluster.on_job_sealed(
            lambda job_id, owner, describe, output: bus.publish(SEALED_TOPIC, encode_wire(
                {"job": job_id, "owner": owner, "describe": describe, "output": output}
            ))
        )
        self.reply_latency_s = reply_latency_s
        self.server = RpcServer(bus, service_queue, reply_latency_s)
        for rpc, call in PORT_CALLS.items():
            self.server.register(rpc, call.handler(cluster))
        self.server.register("service.stats", self._h_stats)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ClusterBackendService":
        self.server.start()
        return self

    def stop(self) -> None:
        self.server.stop()

    def _h_stats(self, params: dict) -> dict:
        """The back-end service's own counters (not part of the port)."""
        return {
            "bus": self.bus.stats(),
            "requests_served": self.server.requests_served,
            "errors_returned": self.server.errors_returned,
            "reply_latency_s": self.reply_latency_s,
        }
