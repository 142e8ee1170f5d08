"""cProfile across every thread of the system process, in CPU time.

``cProfile`` profiles only the thread that enables it, and the portal
serves each HTTP request on a fresh thread.  :class:`ThreadProfiler`
therefore enables one profiler per thread as the thread starts, timed
by that thread's CPU clock (``time.thread_time``) so blocking waits do
not crowd out the code that burns the CPU, and a
merger thread (itself unprofiled) folds the profilers of finished
threads into one table every half second, so memory stays bounded while
thousands of request threads come and go.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys
import threading
import time

__all__ = ["ThreadProfiler"]


class ThreadProfiler:
    """Profile this thread and every thread started after construction."""

    def __init__(self, merge_every_s: float = 0.5) -> None:
        self._lock = threading.Lock()
        self._live: list[tuple[threading.Thread, cProfile.Profile]] = []
        self._stats: pstats.Stats | None = None
        self._stats_lock = threading.Lock()
        self._stop = threading.Event()
        # started before the hook is installed, so the merger is never profiled
        self._merger = threading.Thread(
            target=self._merge_loop, args=(merge_every_s,), daemon=True,
            name="profile-merger",
        )
        self._merger.start()
        threading.setprofile(self._thread_started)
        self._main = cProfile.Profile(time.thread_time)
        self._main.enable()

    def _thread_started(self, *_args) -> None:
        sys.setprofile(None)
        profile = cProfile.Profile(time.thread_time)
        with self._lock:
            self._live.append((threading.current_thread(), profile))
        profile.enable()

    def _fold(self, profiles: list) -> None:
        with self._stats_lock:
            for profile in profiles:
                if self._stats is None:
                    self._stats = pstats.Stats(profile)
                else:
                    self._stats.add(profile)

    def _finished(self) -> list:
        """Take the profilers of threads that have ended."""
        with self._lock:
            done = [p for t, p in self._live if not t.is_alive()]
            self._live = [(t, p) for t, p in self._live if t.is_alive()]
        return done

    def _merge_loop(self, every_s: float) -> None:
        while not self._stop.wait(every_s):
            self._fold(self._finished())

    def reset(self) -> None:
        """Drop what finished threads and the calling thread recorded so
        far (imports, the set-up's PBKDF2 logins); other threads still
        running keep their profiles.  Call from the constructing thread."""
        self._main.disable()
        self._main = cProfile.Profile(time.thread_time)
        self._main.enable()
        self._finished()
        with self._stats_lock:
            self._stats = None

    def write_top(self, path: str, n: int) -> None:
        """Stop profiling and write the ``n`` largest self-time entries."""
        threading.setprofile(None)
        self._main.disable()
        self._stop.set()
        self._merger.join()
        with self._lock:
            rest = [p for _, p in self._live]
            self._live = []
        # profilers of threads still running are folded as they stand
        self._fold([self._main, *rest])
        out = io.StringIO()
        self._stats.stream = out
        self._stats.sort_stats("tottime").print_stats(n)
        with open(path, "w") as f:
            f.write(out.getvalue())
