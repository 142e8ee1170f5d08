"""The front-end's typed view of the remote cluster.

One :class:`ClusterProxy` per front-end worker.  Its port methods are
not written here: one stub per :data:`~repro.bus.service.CLUSTER_PORT`
entry is generated from the :class:`~repro.bus.service.LocalCluster`
method it stands for (same name, signature and docstring).  A stub maps
its arguments to the RPC's params in its own frame; only a parameter
whose value is not its own wire form (a dataclass such as a
:class:`JobRequest` becomes an object) goes through the port call's
:class:`~repro.wire.Fields` codec, and a list reply turns back into a
tuple where the method returns one.  The stub also maps remote error
types back onto the local exception classes the portal's HTTP error
table already understands, so a front-end handler body is
indistinguishable from the in-process one.  Spec applies that change a
portal stanza arrive on the ``cluster.spec.applied`` topic
(:meth:`ClusterProxy.on_spec_applied`), and a sealed job's pages on the
``cluster.jobs.sealed`` topic (:meth:`ClusterProxy.on_job_sealed`).
"""

from __future__ import annotations

from functools import wraps
from json import loads
from typing import Any, Callable

from repro._errors import (
    AuthorizationError,
    JobError,
    RpcRemoteError,
    SchedulingError,
    SpecError,
)
from repro.bus.core import MessageBus
from repro.bus.rpc import RpcClient, decode_wire
from repro.bus.service import (
    DEFAULT_SERVICE_QUEUE,
    PORT_CALLS,
    SEALED_TOPIC,
    SPEC_TOPIC,
    PortCall,
)

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

    def on_spec_applied(self, listener: Callable[[dict, list], None]) -> None:
        """Call ``listener(doc, ops)`` for every apply that changes a portal
        stanza, whichever worker asked for it."""

        def deliver(payload: str) -> None:
            event = loads(payload)
            listener(event["spec"], event["ops"])

        self.rpc.bus.subscribe(SPEC_TOPIC, deliver)

    def on_job_sealed(self, listener: Callable[[str, str, dict, dict], None]) -> None:
        """Call ``listener(job_id, owner, describe, output)`` once for every
        job sealed from now on, with the pages decoded from the wire text
        the back end published."""

        def deliver(payload: str) -> None:
            event = decode_wire(payload)
            listener(event["job"], event["owner"], event["describe"], event["output"])

        self.rpc.bus.subscribe(SEALED_TOPIC, deliver)

    def service_stats(self) -> dict:
        try:
            return self.rpc.call("service.stats", None, timeout=self.timeout_s)
        except RpcRemoteError as exc:
            raise _local_error(exc) from None


def _local_error(exc: RpcRemoteError) -> Exception:
    """The local exception a remote one stands for (``exc`` itself if none)."""
    local = _REMOTE_ERRORS.get(exc.remote_type)
    return exc if local is None else local(str(exc))


def _stub(call: PortCall) -> Callable[..., Any]:
    """The proxy method for one port call: one RPC."""
    rpc, names, tuple_reply = call.rpc, call.names, call.tuple_reply
    encode = call.fields.encode if call.fields.encoders else None
    n_names = len(names)

    @wraps(call.function)
    def stub(self: ClusterProxy, *args: Any, **kwargs: Any) -> Any:
        if len(args) > n_names:
            raise TypeError(f"{call.method}() takes {n_names} arguments, got {len(args)}")
        params = dict(zip(names, args), **kwargs)
        if encode is not None:
            encode(params)
        try:
            reply = self.rpc.call(rpc, params, timeout=self.timeout_s)
        except RpcRemoteError as exc:
            raise _local_error(exc) from None
        return tuple(reply) if tuple_reply else reply

    stub.__qualname__ = f"ClusterProxy.{call.method}"
    return stub


for _call in PORT_CALLS.values():
    setattr(ClusterProxy, _call.method, _stub(_call))
del _call
