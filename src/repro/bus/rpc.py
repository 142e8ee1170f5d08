"""Request/reply RPC over the message bus.

A call runs on the caller's thread: :meth:`RpcClient.call` encodes the
envelope and hands it to :meth:`MessageBus.request`, which runs the
:class:`RpcServer` registered on the service queue; the server decodes
it, runs the named handler and encodes the reply, and the client
decodes that.  No thread, queue or correlation id sits between them.

Wire discipline: every payload that crosses the bus is round-tripped
through JSON (:func:`encode_wire`/:func:`decode_wire`).  In-process the
bytes could be skipped, but enforcing the codec here means a front-end
can never accidentally share a live object with the back-end — the
boundary stays honest, so swapping the in-memory backend for a real
broker changes no calling code.

Envelopes are plain dicts::

    request:  {"method", "params"}
    reply:    {"ok": result}                   on success
              {"err": {"type", "message"}}     on handler failure

Handler exceptions are encoded and re-raised client-side as
:class:`RpcRemoteError` carrying the remote class name, which the portal
front-end maps back onto its HTTP error table.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Optional

from repro._errors import BusError, RpcRemoteError, RpcTimeout
from repro.bus.core import MessageBus

__all__ = ["RpcClient", "RpcServer", "decode_wire", "encode_wire"]

#: ``json.dumps`` with non-default separators builds a new encoder per
#: call; one shared compact encoder is stateless between calls.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_wire(payload: Any) -> str:
    """Serialise ``payload`` for the bus; rejects non-JSON-able objects."""
    try:
        return _ENCODER.encode(payload)
    except (TypeError, ValueError) as exc:
        raise BusError(f"payload is not wire-safe: {exc}") from None


def decode_wire(data: str) -> Any:
    try:
        return json.loads(data)
    except (TypeError, ValueError) as exc:
        raise BusError(f"malformed wire payload: {exc}") from None


class RpcServer:
    """Named handlers served on one queue, one call at a time.

    :meth:`start` registers the server on the bus and :meth:`stop`
    removes it; no thread of its own runs.  Callers' threads take turns
    through one lock, acquired within each call's timeout: a call that
    cannot get it raises :class:`RpcTimeout` without running its handler,
    so a client's retry cannot repeat work a first attempt did.

    ``reply_latency_s`` models a network round trip: each caller sleeps
    that long after its handler, outside the lock, so concurrent callers
    overlap their waits as they would against a remote service.
    """

    #: not called: a reply returns to its caller directly (perfbench's
    #: tracer still patches the attribute)
    on_reply: Optional[Callable[[str, str], None]] = None

    def __init__(
        self, bus: MessageBus, service_queue: str, reply_latency_s: float = 0.0
    ) -> None:
        self.bus = bus
        self.service_queue = service_queue
        self.reply_latency_s = reply_latency_s
        self._handlers: dict[str, Callable[[dict], Any]] = {}
        self._lock = threading.Lock()
        self._serving = False
        self.requests_served = 0
        self.errors_returned = 0

    def register(self, method: str, handler: Callable[[dict], Any]) -> None:
        self._handlers[method] = handler

    # -- serving -------------------------------------------------------------
    def handle(self, data: str, timeout: Optional[float]) -> str:
        """Serve one encoded request on the calling thread; the encoded reply."""
        req = decode_wire(data)
        if not self._lock.acquire(timeout=-1 if timeout is None else timeout):
            raise RpcTimeout(f"{self.service_queue!r} stayed busy for {timeout}s")
        try:
            if not self._serving:  # stopped while this call waited
                raise RpcTimeout(f"no server on {self.service_queue!r}")
            try:
                handler = self._handlers.get(req.get("method", ""))
                if handler is None:
                    raise BusError(f"unknown RPC method {req.get('method')!r}")
                reply = {"ok": handler(req.get("params") or {})}
            except Exception as exc:  # noqa: BLE001 - every failure crosses the wire
                reply = {"err": {"type": type(exc).__name__, "message": str(exc)}}
                self.errors_returned += 1
            self.requests_served += 1
        finally:
            self._lock.release()
        if self.reply_latency_s > 0:
            time.sleep(self.reply_latency_s)
        return encode_wire(reply)

    def start(self) -> None:
        """Serve the queue; :class:`BusError` if it already has a server."""
        self.bus.serve(self.service_queue, self.handle)
        self._serving = True

    def stop(self, timeout: float = 2.0) -> None:
        """Stop serving; wait up to ``timeout`` for a running handler."""
        if not self._serving:
            return
        self._serving = False
        self.bus.unserve(self.service_queue)
        if self._lock.acquire(timeout=timeout):
            self._lock.release()


class RpcClient:
    """One caller's end of the request/reply pair.

    A client may be shared by concurrent threads (a front-end worker
    serving parallel requests): each call runs on its own thread and gets
    its own reply back from the bus.
    """

    _ids = itertools.count(1)

    def __init__(
        self, bus: MessageBus, service_queue: str, client_id: str | None = None
    ) -> None:
        self.bus = bus
        self.service_queue = service_queue
        self.client_id = client_id or f"c{next(self._ids)}"
        self.calls = 0
        self.timeouts = 0
        #: always 0: no reply can outlive its call (perfbench reads it)
        self.stale_dropped = 0

    def call(self, method: str, params: dict | None = None, timeout: float = 5.0) -> Any:
        """Invoke ``method`` on the service; returns the decoded result.

        Raises :class:`RpcTimeout` when the service is not serving or
        stays busy for ``timeout`` seconds (the handler has not run), and
        :class:`RpcRemoteError` when the handler raised.
        """
        self.calls += 1
        try:
            data = self.bus.request(
                self.service_queue,
                encode_wire({"method": method, "params": params or {}}),
                timeout,
            )
        except RpcTimeout:
            self.timeouts += 1
            raise
        reply = decode_wire(data)
        err = reply.get("err")
        if err is not None:
            raise RpcRemoteError(
                err.get("message", "remote error"),
                remote_type=err.get("type", "Exception"),
            )
        return reply.get("ok")
