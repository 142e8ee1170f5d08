"""The front-end's typed view of the remote cluster.

One :class:`ClusterProxy` per front-end worker.  Its port methods are
not written here: one stub per :data:`~repro.bus.service.CLUSTER_PORT`
entry is generated from the :class:`~repro.bus.service.LocalCluster`
method it stands for (same name, signature and docstring).  A stub maps
its arguments to the RPC's params, puts each in its wire form with the
port call's :class:`~repro.wire.Fields` codec (a dataclass such as a
:class:`JobRequest` becomes an object), and turns a list reply back
into a tuple where the method returns one.  The proxy also maps remote
error types back onto the local exception classes the portal's HTTP error table
already understands, so a front-end handler body is indistinguishable
from the in-process one.  Spec applies that change a portal stanza
arrive on the ``cluster.spec.applied`` topic
(:meth:`ClusterProxy.on_spec_applied`).
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
from repro.bus.rpc import RpcClient
from repro.bus.service import DEFAULT_SERVICE_QUEUE, PORT_CALLS, SPEC_TOPIC, PortCall

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

    def on_spec_applied(self, listener: Callable[[dict, list], None]) -> None:
        """Call ``listener(doc, ops)`` for every apply that changes a portal
        stanza, whichever worker asked for it."""

        def deliver(payload: str) -> None:
            event = loads(payload)
            listener(event["spec"], event["ops"])

        self.rpc.bus.subscribe(SPEC_TOPIC, deliver)

    def service_stats(self) -> dict:
        return self._call("service.stats")


def _stub(call: PortCall) -> Callable[..., Any]:
    """The proxy method for one port call: one RPC."""
    rpc, names, encode, tuple_reply = call.rpc, call.names, call.fields.encode, call.tuple_reply

    @wraps(call.function)
    def stub(self: ClusterProxy, *args: Any, **kwargs: Any) -> Any:
        if len(args) > len(names):
            raise TypeError(f"{call.method}() takes {len(names)} arguments, got {len(args)}")
        reply = self._call(rpc, encode(dict(zip(names, args), **kwargs)))
        return tuple(reply) if tuple_reply else reply

    stub.__qualname__ = f"ClusterProxy.{call.method}"
    return stub


for _call in PORT_CALLS.values():
    setattr(ClusterProxy, _call.method, _stub(_call))
del _call
