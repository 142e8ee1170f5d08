"""Thread-safe message bus over an in-process backend.

Three primitives:

* **request/reply** carries RPC traffic: a server registers one handler
  per queue (:meth:`MessageBus.serve`) and :meth:`MessageBus.request`
  runs it on the caller's thread, so a round trip costs no thread
  hand-off;
* point-to-point **queues** (one consumer drains each queue) block on a
  per-queue condition variable so a consumer can sleep until work
  arrives;
* **topics** fan a published payload out to every subscriber (session
  replication, invalidation signals), synchronously on the publisher's
  thread, which keeps replication deterministic in tests.

``MessageBus("memory")`` runs on the in-process backend; any object
with the same ``serve``/``unserve``/``request``/``put``/``get``/
``depth``/``subscribe``/``publish`` methods can be passed in its place.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Optional

from repro._errors import BusError, RpcTimeout

__all__ = ["InMemoryBackend", "MessageBus"]


class _Queue:
    """One point-to-point queue: deque + condition, FIFO delivery."""

    __slots__ = ("items", "cond")

    def __init__(self) -> None:
        self.items: deque = deque()
        self.cond = threading.Condition()


class InMemoryBackend:
    """The in-process backend: dicts of servers, queues and topic subscribers."""

    name = "memory"

    def __init__(self) -> None:
        self._servers: dict[str, Callable[[Any, Optional[float]], Any]] = {}
        self._queues: dict[str, _Queue] = {}
        self._topics: dict[str, list[Callable[[Any], None]]] = {}
        self._lock = threading.Lock()  # guards the dicts' writes, never delivery

    def _queue(self, name: str) -> _Queue:
        with self._lock:
            q = self._queues.get(name)
            if q is None:
                q = self._queues[name] = _Queue()
            return q

    # -- request/reply -----------------------------------------------------
    def serve(self, queue: str, handler: Callable[[Any, Optional[float]], Any]) -> None:
        with self._lock:
            if queue in self._servers:
                raise BusError(f"queue {queue!r} already has a server")
            self._servers[queue] = handler

    def unserve(self, queue: str) -> None:
        with self._lock:
            self._servers.pop(queue, None)

    def request(self, queue: str, message: Any, timeout: Optional[float]) -> Any:
        handler = self._servers.get(queue)  # one dict read: atomic without the lock
        if handler is None:
            raise RpcTimeout(f"no server on {queue!r}")
        return handler(message, timeout)

    # -- point-to-point ----------------------------------------------------
    def put(self, queue: str, item: Any) -> None:
        q = self._queue(queue)
        with q.cond:
            q.items.append(item)
            q.cond.notify()

    def get(self, queue: str, timeout: Optional[float] = None) -> Any:
        """Next item, or None when ``timeout`` elapses empty-handed."""
        q = self._queue(queue)
        with q.cond:
            if not q.items and not q.cond.wait_for(lambda: bool(q.items), timeout):
                return None
            return q.items.popleft()

    def depth(self, queue: str) -> int:
        q = self._queue(queue)
        with q.cond:
            return len(q.items)

    # -- publish/subscribe --------------------------------------------------
    def subscribe(self, topic: str, callback: Callable[[Any], None]) -> None:
        with self._lock:
            self._topics.setdefault(topic, []).append(callback)

    def publish(self, topic: str, payload: Any) -> int:
        with self._lock:
            subscribers = list(self._topics.get(topic, ()))
        for cb in subscribers:
            cb(payload)
        return len(subscribers)


class MessageBus:
    """Facade over one backend, with send/delivery accounting.

    All methods are thread-safe; the counters are plain ints read by the
    telemetry registry through ``set_fn`` at scrape time (the hot paths
    never touch a metrics object).
    """

    def __init__(self, backend: str | Any = "memory") -> None:
        if isinstance(backend, str):
            if backend != "memory":
                raise BusError(f"unknown bus backend {backend!r} (use 'memory')")
            backend = InMemoryBackend()
        self.backend = backend
        self.sent = 0
        self.delivered = 0
        self.published = 0

    # -- request/reply -----------------------------------------------------
    def serve(self, queue: str, handler: Callable[[Any, Optional[float]], Any]) -> None:
        """Make ``handler(message, timeout)`` the one server of ``queue``.

        Raises :class:`BusError` when ``queue`` already has a server.
        """
        self.backend.serve(queue, handler)

    def unserve(self, queue: str) -> None:
        """Remove ``queue``'s server; later requests find none."""
        self.backend.unserve(queue)

    def request(self, queue: str, message: Any, timeout: Optional[float] = None) -> Any:
        """Run ``queue``'s server on ``message`` on this thread; its reply.

        ``timeout`` is handed to the server, which bounds its own wait.
        Raises :class:`RpcTimeout` at once when nobody serves ``queue``:
        no reply can come, so a caller should not wait for one.
        """
        return self.backend.request(queue, message, timeout)

    # -- point-to-point ----------------------------------------------------
    def send(self, queue: str, message: Any) -> None:
        """Enqueue ``message`` for the (single) consumer of ``queue``."""
        if not queue:
            raise BusError("queue name must be non-empty")
        self.sent += 1
        self.backend.put(queue, message)

    def receive(self, queue: str, timeout: Optional[float] = None) -> Any:
        """Blocking dequeue; None when ``timeout`` expires."""
        item = self.backend.get(queue, timeout)
        if item is not None:
            self.delivered += 1
        return item

    def depth(self, queue: str) -> int:
        """Messages currently waiting in ``queue``."""
        return self.backend.depth(queue)

    # -- publish/subscribe --------------------------------------------------
    def subscribe(self, topic: str, callback: Callable[[Any], None]) -> None:
        """Register ``callback`` for every future publish on ``topic``."""
        self.backend.subscribe(topic, callback)

    def publish(self, topic: str, payload: Any) -> int:
        """Fan ``payload`` out to subscribers; returns how many got it."""
        self.published += 1
        return self.backend.publish(topic, payload)

    # -- observability ------------------------------------------------------
    def stats(self) -> dict:
        return {
            "backend": getattr(self.backend, "name", type(self.backend).__name__),
            "sent": self.sent,
            "delivered": self.delivered,
            "published": self.published,
        }
