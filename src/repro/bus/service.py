"""The cluster back-end service: one distributor behind an RPC queue.

:class:`ClusterBackendService` is the only thing on the cluster side of
the bus.  It owns a :class:`JobDistributor` and serves the narrow
method surface the front-end tier needs — submit, describe, output
polling, cancel, and the tiny ``cluster.version`` freshness probe the
front-ends revalidate their response caches with.

Ownership is enforced *here*, not just at the front-ends: every job
method takes the calling user and a ``view_all`` capability flag, so a
buggy front-end cannot leak another student's job across the bus.

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

from repro._errors import AuthorizationError, BusError, JobError
from repro.bus.core import MessageBus
from repro.bus.rpc import RpcServer
from repro.cluster.distributor import JobDistributor
from repro.cluster.job import Job, JobRequest
from repro.spec import Reconfigurer, validate as validate_spec

__all__ = ["ClusterBackendService", "DEFAULT_SERVICE_QUEUE"]

DEFAULT_SERVICE_QUEUE = "cluster.backend"


class ClusterBackendService:
    """Back-end service wrapping one distributor."""

    def __init__(
        self,
        bus: MessageBus,
        distributor: JobDistributor,
        service_queue: str = DEFAULT_SERVICE_QUEUE,
        reply_latency_s: float = 0.0,
    ) -> None:
        self.bus = bus
        self.distributor = distributor
        self.reply_latency_s = reply_latency_s
        #: declarative-spec management surface (describe / validate / apply)
        self.reconfigurer = Reconfigurer(distributor)
        self.server = RpcServer(bus, service_queue, reply_latency_s)
        for method, handler in (
            ("cluster.version", self._h_version),
            ("cluster.status", self._h_status),
            ("cluster.checkpoint", self._h_checkpoint),
            ("cluster.durability", self._h_durability),
            ("cluster.fleet", self._h_fleet),
            ("cluster.fleet.log", self._h_fleet_log),
            ("cluster.spec.describe", self._h_spec_describe),
            ("cluster.spec.validate", self._h_spec_validate),
            ("cluster.spec.reconfigure", self._h_spec_reconfigure),
            ("jobs.submit", self._h_submit),
            ("jobs.describe", self._h_describe),
            ("jobs.list", self._h_list),
            ("jobs.output", self._h_output),
            ("jobs.fingerprint", self._h_fingerprint),
            ("jobs.input", self._h_input),
            ("jobs.cancel", self._h_cancel),
            ("service.stats", self._h_stats),
        ):
            self.server.register(method, handler)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ClusterBackendService":
        self.server.start()
        return self

    def stop(self) -> None:
        self.server.stop()

    # -- shared helpers --------------------------------------------------------
    def _job_for(self, params: dict) -> Job:
        job = self.distributor.job(str(params.get("job_id", "")))
        owner = str(params.get("owner", ""))
        if job.request.owner != owner and not params.get("view_all"):
            raise AuthorizationError(
                f"job {job.id} belongs to {job.request.owner!r}"
            )
        return job

    # -- handlers ---------------------------------------------------------------
    def _h_version(self, params: dict) -> dict:
        return self.distributor.control_state()

    def _h_status(self, params: dict) -> dict:
        return self.distributor.stats()

    def _h_checkpoint(self, params: dict) -> dict:
        """Force a snapshot + compaction now (admin surface, e.g. pre-upgrade)."""
        if self.distributor.journal is None:
            raise JobError("cluster runs without a journal; nothing to checkpoint")
        return self.distributor.checkpoint()

    def _h_durability(self, params: dict) -> dict:
        return self.distributor.durability_stats()

    def _h_fleet(self, params: dict) -> dict:
        """Fleet snapshot (pools, sizes, pending, node-seconds)."""
        fleet = self.distributor.fleet
        if fleet is None:
            return {"enabled": False}
        return fleet.snapshot()

    def _h_fleet_log(self, params: dict) -> list[dict]:
        """The fleet manager's bounded decision log (admin surface)."""
        fleet = self.distributor.fleet
        if fleet is None:
            return []
        return fleet.decision_log()

    def _h_spec_describe(self, params: dict) -> dict:
        """The live deployment serialised as a spec document."""
        return self.reconfigurer.describe()

    def _h_spec_validate(self, params: dict) -> dict:
        """Collect-all validation of ``params["spec"]`` (never raises)."""
        doc = params.get("spec")
        return validate_spec(doc, source="bus").as_dict()

    def _h_spec_reconfigure(self, params: dict) -> dict:
        """Plan (default) or apply ``params["spec"]`` to the live cluster.

        Capability enforcement happens here, mirroring the job surface:
        callers must send ``manage: true`` (front-ends set it only for
        users holding ``manage_cluster``).
        """
        if not params.get("manage"):
            raise AuthorizationError("cluster.spec.reconfigure needs manage_cluster")
        doc = params.get("spec")
        if not isinstance(doc, dict):
            raise BusError("cluster.spec.reconfigure needs a 'spec' object")
        if not params.get("apply"):
            plan = self.reconfigurer.plan(doc)
            return {"applied": False, "plan": plan.as_dict()}
        result = self.reconfigurer.apply(doc)
        return {"applied": True, **result}

    def _h_submit(self, params: dict) -> dict:
        wire = params.get("request")
        if not isinstance(wire, dict):
            raise BusError("jobs.submit needs a 'request' object")
        request = JobRequest.from_wire(wire)
        if not request.owner:
            raise JobError("submissions over the bus must carry an owner")
        return self.distributor.submit(request).describe()

    def _h_describe(self, params: dict) -> dict:
        return self._job_for(params).describe()

    def _h_list(self, params: dict) -> list[dict]:
        jobs = self.distributor.jobs.values()
        if not params.get("view_all"):
            owner = str(params.get("owner", ""))
            jobs = [j for j in jobs if j.request.owner == owner]
        return [j.describe() for j in jobs]

    def _h_output(self, params: dict) -> dict:
        job = self._job_for(params)
        since = int(params.get("since", 0))
        out, out_next, out_trunc = job.stdout.read_since(since)
        return {
            "state": job.state.value,
            "stdout": out,
            "next": out_next,
            "truncated": out_trunc,
            "stderr_tail": job.stderr.tail(50),
            "exit_code": job.exit_code,
            "error": job.error,
            "attempt": job.attempt_epoch,
            "retries": max(0, job.attempt_epoch - 1),
            "attempts": [a.as_dict() for a in job.attempts],
        }

    def _h_fingerprint(self, params: dict) -> list:
        job = self._job_for(params)
        return [
            job.state.value,
            job.stdout.next_index,
            job.stderr.next_index,
            job.exit_code,
            job.attempt_epoch,
            len(job.attempts),
        ]

    def _h_input(self, params: dict) -> dict:
        job = self._job_for(params)
        if job.stdin.closed:
            raise JobError(f"job {job.id} does not accept input")
        job.stdin.write(str(params.get("text", "")))
        return {"ok": True}

    def _h_cancel(self, params: dict) -> dict:
        job = self._job_for(params)
        return {"ok": self.distributor.cancel(job.id)}

    def _h_stats(self, params: dict) -> dict:
        return {
            "bus": self.bus.stats(),
            "requests_served": self.server.requests_served,
            "errors_returned": self.server.errors_returned,
            "reply_latency_s": self.reply_latency_s,
        }
