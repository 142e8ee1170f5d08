"""Work that runs once the current reply has gone out.

A server that acknowledges a request before acting on it opens a *reply
scope* on the thread that serves it: :func:`after_reply` then queues its
callback, and the scope runs the queue once the response is written and
the connection closed.  Outside a scope a callback runs at once, so a caller
that answers nobody (a test, the simulator, a script) finds the work
done when its call returns, and the code that defers has one path.

The scope lives in a :mod:`contextvars` variable, so it follows the
request through anything that runs on the request's thread (an
in-process bus RPC included), while a thread started meanwhile does not
inherit it.
"""

from __future__ import annotations

import os
from contextvars import ContextVar
from typing import Callable

__all__ = ["ReplyScope", "after_reply"]

#: the open scope's queue (insertion-ordered, so a duplicate runs once);
#: ``None`` outside every scope.
_queued: ContextVar[dict | None] = ContextVar("repro_after_reply", default=None)


def after_reply(fn: Callable[[], object]) -> None:
    """Run ``fn`` once the current reply is out; at once outside a reply scope.

    Queuing the same callable twice in one scope runs it once.
    """
    queued = _queued.get()
    if queued is None:
        fn()
    else:
        queued[fn] = None


class ReplyScope:
    """A ``with`` block whose deferred callbacks run at each :meth:`drain`
    and when it exits; a server keeps one open per worker thread.

    The scope closes before its queue runs at exit, so a callback that
    defers again runs at once (in a drain, next in the same drain).
    Before a non-empty queue runs, the thread yields its CPU once, so
    whatever the reply woke (the client reading it) runs first.  A
    callback that raises is reported through ``on_error``, called with no
    arguments from inside the ``except`` clause (``sys.exc_info()`` is the
    failure); the callbacks after it still run.
    """

    __slots__ = ("_on_error", "_token", "_queue")

    def __init__(self, on_error: Callable[[], object]) -> None:
        self._on_error = on_error
        self._token = None
        self._queue: dict = {}

    def __enter__(self) -> "ReplyScope":
        self._token = _queued.set(self._queue)
        return self

    def __exit__(self, *exc_info) -> None:
        _queued.reset(self._token)
        self.drain()

    def drain(self) -> None:
        """Run every callback deferred since the last drain."""
        queue = self._queue
        if queue:
            # Deferred work that keeps the CPU from the woken client does
            # not stay cheap: the scheduler repays the client later by
            # preempting the server's next replies mid-close.
            os.sched_yield()
        while queue:
            fn = next(iter(queue))
            del queue[fn]
            try:
                fn()
            except Exception:  # noqa: BLE001 - reported, never skips the rest
                self._on_error()
