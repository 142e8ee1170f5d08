"""Standard-stream capture and interactive input.

The paper: "The web interface allows the user to monitor the standard
streams, and even provide input, if so the target application requires
it."  :class:`StreamCapture` is the monitor side (bounded scrollback +
offset-based polling, which maps directly onto the portal's
``GET /jobs/<id>/output?since=N`` endpoint); :class:`InteractiveChannel`
is the stdin side.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import islice
from typing import Callable, Deque, Optional

__all__ = ["StreamCapture", "InteractiveChannel"]


class StreamCapture:
    """Thread-safe, bounded line buffer with absolute line offsets.

    Lines keep monotonically increasing indices even after old lines are
    evicted, so a polling client can always ask "everything since line N"
    and detect truncation.
    """

    def __init__(self, name: str = "stream", max_lines: int = 10_000) -> None:
        if max_lines < 1:
            raise ValueError(f"max_lines must be >= 1, got {max_lines}")
        self.name = name
        self.max_lines = max_lines
        self._lines: Deque[str] = deque()
        self._first_index = 0  # absolute index of _lines[0]
        self._lock = threading.Lock()
        self._closed = threading.Event()

    # -- producer side ------------------------------------------------------
    def write_line(self, line: str) -> None:
        """Append one line (newline-stripped)."""
        with self._lock:
            if self._closed.is_set():
                return  # late writes after close are dropped silently
            self._lines.append(line.rstrip("\n"))
            if len(self._lines) > self.max_lines:
                self._lines.popleft()
                self._first_index += 1

    def write_text(self, text: str) -> None:
        """Append multi-line text."""
        for line in text.splitlines():
            self.write_line(line)

    def close(self) -> None:
        """Mark the stream finished (process exited)."""
        self._closed.set()

    # -- consumer side -------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    @property
    def next_index(self) -> int:
        """Absolute index one past the newest line."""
        with self._lock:
            return self._first_index + len(self._lines)

    def read_since(self, since: int = 0) -> tuple[list[str], int, bool]:
        """Lines with absolute index >= ``since``.

        Returns ``(lines, next_index, truncated)`` where ``truncated``
        warns that lines before ``since`` were evicted (client asked for
        history that no longer exists).

        Copies only the requested suffix via ``islice`` — indexing a
        deque is O(distance-from-end), so the old per-index loop was
        quadratic in the slice length.
        """
        with self._lock:
            first = self._first_index
            end = first + len(self._lines)
            truncated = since < first
            start = max(since, first) - first
            if start <= 0:
                lines = list(self._lines)
            elif start >= len(self._lines):
                lines = []
            else:
                lines = list(islice(self._lines, start, None))
            return lines, end, truncated

    def text_since(self, since: int = 0) -> tuple[str, int, bool]:
        """Like :meth:`read_since` but pre-joined with newlines.

        One string instead of a list of lines — what the HTML job page
        and log download want, without a per-poll list of substrings.
        """
        lines, end, truncated = self.read_since(since)
        return "\n".join(lines), end, truncated

    def tail(self, n: int = 20) -> list[str]:
        """The newest ``n`` lines (copies only those ``n``)."""
        with self._lock:
            start = max(0, len(self._lines) - n)
            return list(islice(self._lines, start, None))

    def text(self) -> str:
        """Everything still buffered, joined with newlines."""
        with self._lock:
            return "\n".join(self._lines)


class InteractiveChannel:
    """stdin feed for interactive jobs.

    The portal's input box calls :meth:`write`; the execution backend
    consumes with :meth:`read_line` (blocking with timeout), or with
    ``timeout=0`` when ``on_change`` wakes it.  Closing the channel
    delivers EOF (``None``) to readers.
    """

    def __init__(self, name: str = "stdin") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._buffer: Deque[str] = deque()
        self._closed = False
        #: called after every write and close; the subprocess backend
        #: sets it to wake its I/O loop
        self.on_change: Optional[Callable[[], None]] = None

    def write(self, text: str) -> None:
        """Queue input text (split into lines)."""
        with self._cond:
            if self._closed:
                raise ValueError(f"stdin channel {self.name} is closed")
            for line in text.splitlines():
                self._buffer.append(line)
            self._cond.notify_all()
        if self.on_change is not None:
            self.on_change()

    def close(self) -> None:
        """Send EOF to the consumer."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        if self.on_change is not None:
            self.on_change()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def read_line(self, timeout: Optional[float] = None) -> Optional[str]:
        """Next input line; ``None`` on EOF. Raises TimeoutError on timeout."""
        with self._cond:
            while not self._buffer:
                if self._closed:
                    return None
                if not self._cond.wait(timeout):
                    raise TimeoutError(f"no stdin on {self.name} within {timeout}s")
            return self._buffer.popleft()

    def drain(self) -> str:
        """All currently queued input joined by newlines (non-blocking)."""
        with self._lock:
            out = "\n".join(self._buffer)
            self._buffer.clear()
            return out
