"""Execution backends: how an allocated job actually runs.

Three interchangeable backends behind one interface:

* :class:`SubprocessBackend` — real OS processes (the portal's compiled
  C/C++/Java programs), one per task with ``REPRO_RANK``/``REPRO_SIZE``/
  ``REPRO_NODE`` set; sequential and parallel jobs share one I/O thread.
* :class:`CallableBackend` — Python callables on worker threads;
  parallel callables run under :func:`repro.minimpi.run_mpi` with the
  comm as first argument.  Hermetic: used by most tests and labs.
* :class:`SimulatedBackend` — no real work at all: completion after the
  job's ``sim_duration`` of *virtual* time on a
  :class:`~repro.desim.kernel.Simulator`.  Used for scheduling studies
  where thousands of jobs must flow through the queue in milliseconds.

A backend's ``launch`` returns an :class:`ExecutionHandle`; completion is
reported through the handle's callback, which the distributor uses to
free resources.
"""

from __future__ import annotations

import math
import os
import selectors
import subprocess
import threading
import time
from functools import partial
from typing import Callable

from repro._errors import JobError
from repro.cluster.job import Job, JobKind, JobState
from repro.desim.kernel import Simulator

#: A cancel kills the ranks this long after rank 0 got its queued input and EOF.
CANCEL_GRACE_S = 0.05

__all__ = [
    "ExecutionHandle",
    "ExecutionBackend",
    "SubprocessBackend",
    "CallableBackend",
    "SimulatedBackend",
]


class ExecutionHandle:
    """Running-job control: cancellation + completion signalling.

    ``epoch`` snapshots the job's attempt generation at launch.  When the
    distributor retires an attempt early (node death, enforced timeout)
    and later relaunches the job, this handle's eventual completion
    carries a stale epoch and :func:`_finish` ignores it — the zombie
    attempt can neither change the job's state nor close its streams.
    """

    def __init__(self, job: Job) -> None:
        self.job = job
        self.epoch = getattr(job, "attempt_epoch", 0)
        self._cancel = threading.Event()
        self._done = threading.Event()
        self._on_done: list[Callable[[Job], None]] = []

    def request_cancel(self) -> None:
        """Ask the execution to stop (best effort)."""
        self._cancel.set()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def on_done(self, cb: Callable[[Job], None]) -> None:
        """Register a completion callback (fires immediately if done)."""
        if self._done.is_set():
            cb(self.job)
        else:
            self._on_done.append(cb)

    def _mark_done(self) -> None:
        self._done.set()
        for cb in self._on_done:
            cb(self.job)
        self._on_done.clear()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the execution finished; returns success."""
        return self._done.wait(timeout)


class ExecutionBackend:
    """Interface: turn an allocated job into running work."""

    def launch(self, job: Job) -> ExecutionHandle:
        """Start ``job`` (placement already recorded on the job)."""
        raise NotImplementedError


def _finish(job: Job, handle: ExecutionHandle, exit_code: int, error: str | None = None) -> None:
    """Common completion path used by the real backends.

    A completion from a superseded attempt (the distributor already
    killed it and possibly relaunched the job) is dropped entirely.  For
    a live attempt that failed or timed out, the job's ``retry_gate`` —
    installed by the distributor — may convert the would-be terminal
    state into RETRYING; streams then stay open for the next attempt.
    """
    if handle.epoch != getattr(job, "attempt_epoch", 0) or job.state is not JobState.RUNNING:
        # A stale attempt, or one the fault path (node death or enforced
        # timeout) already resolved: observers unblock, the job is untouched.
        handle._mark_done()
        return
    job.exit_code = exit_code
    job.error = error
    if handle.cancel_requested:
        outcome = JobState.CANCELLED
    elif error == "timeout":
        outcome = JobState.TIMEOUT
    elif exit_code == 0:
        outcome = JobState.COMPLETED
    else:
        outcome = JobState.FAILED
    retrying = (
        outcome in (JobState.FAILED, JobState.TIMEOUT)
        and job.retry_gate is not None
        and job.retry_gate(job, outcome)
    )
    if retrying:
        job.try_transition(JobState.RETRYING)
    else:
        job.stdout.close()
        job.stderr.close()
        job.try_transition(outcome)
    handle._mark_done()


class _Run(ExecutionHandle):
    """One subprocess attempt: its handle, and its ranks' state in the I/O loop."""

    def __init__(self, job: Job, wake: Callable[[], None]) -> None:
        super().__init__(job)
        self.wake, self.procs, self.pipes = wake, [], []  # pipes: (file, capture, prefix)
        self.stdin, self.inbuf = None, b""  # rank 0's stdin; input it has not taken yet
        self.deadline = time.monotonic() + (job.request.timeout_s or math.inf)
        self.killed, self.failure = False, None  # failure: (exit code, error) to seal with

    def request_cancel(self) -> None:
        super().request_cancel()
        self.wake()


class SubprocessBackend(ExecutionBackend):
    """Run ``job.request.argv`` as real OS processes, one per task.

    One ``selectors`` thread per backend spawns every job's ranks, pumps
    their stdout/stderr line by line (``[rank N] `` prefixed when
    ``n_tasks > 1``), feeds stdin to rank 0, enforces ``timeout_s``,
    kills every rank ``CANCEL_GRACE_S`` after a cancel and reaps exits
    through pidfds.  The job's exit code is the first non-zero rank code.
    A launch, a cancel or a stdin write wakes the thread through its
    self-pipe (an eventfd); with no job left it exits and closes its fds.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._pending: list[_Run] = []  # launched, not yet spawned
        self._runs: set[_Run] = set()  # spawned, not yet sealed
        self._partial: dict = {}  # pipe file -> its unfinished last line
        self._wake_fd: int | None = None  # the loop's self-pipe (an eventfd) while it runs

    def launch(self, job: Job) -> ExecutionHandle:
        if job.request.argv is None:
            raise JobError(f"job {job.id} has no argv; SubprocessBackend cannot run it")
        run = _Run(job, self._wake)
        job.stdin.on_change = self._wake
        with self._lock:
            self._pending.append(run)
            if self._wake_fd is None:
                self._wake_fd = os.eventfd(0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
                threading.Thread(target=self._loop, daemon=True, name="subprocess-io").start()
        self._wake()
        return run

    def _wake(self) -> None:
        with self._lock:
            if self._wake_fd is not None:
                os.eventfd_write(self._wake_fd, 1)

    def _loop(self) -> None:
        sel = self._sel = selectors.DefaultSelector()
        sel.register(self._wake_fd, selectors.EVENT_READ, partial(os.eventfd_read, self._wake_fd))
        while True:
            with self._lock:
                spawn, self._pending = self._pending, []
                if not spawn and not self._runs:
                    sel.close()
                    os.close(self._wake_fd)
                    self._wake_fd = None
                    return
            for run in spawn:
                self._spawn(run)
            now = time.monotonic()
            for run in [r for r in self._runs if not r.killed]:
                if run.cancel_requested:  # rank 0 gets the input sent before it, then EOF
                    run.deadline = min(run.deadline, now + CANCEL_GRACE_S)
                self._feed(run, eof=run.cancel_requested)
                if now >= run.deadline:  # a cancel, a launch failure or the job's timeout
                    if not (run.cancel_requested or run.failure):
                        run.failure = (-1, "timeout")
                    run.killed = True
                    for proc in run.procs:
                        proc.kill()
            deadline = min((r.deadline for r in self._runs if not r.killed), default=math.inf)
            for key, _ in sel.select(None if deadline == math.inf else max(0.0, deadline - now)):
                if sel.get_map().get(key.fd) is key:  # not closed earlier in this batch
                    key.data()

    def _spawn(self, run: _Run) -> None:
        job, per_task = run.job, run.job.request.cores_per_task
        # one node name per task, from the per-node placement
        tasks = [n for n, cores in sorted(job.placement.items()) for _ in range(cores // per_task)]
        tasks = tasks[: job.request.n_tasks] or [next(iter(job.placement), "node-0")]
        if run.cancel_requested:  # cancelled before its spawn: no process starts
            tasks, run.failure = [], (-1, None)
        try:
            for rank, node_name in enumerate(tasks):
                env = {**os.environ, **job.request.env, "REPRO_RANK": str(rank),
                       "REPRO_SIZE": str(len(tasks)), "REPRO_NODE": node_name}
                proc = subprocess.Popen(
                    job.request.argv, env=env, cwd=job.request.workdir, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, stdin=subprocess.DEVNULL if rank else subprocess.PIPE)
                run.procs.append(proc)
                prefix = f"[rank {rank}] " if len(tasks) > 1 else ""
                run.stdin = run.stdin or proc.stdin  # rank 0's
                for file in filter(None, (proc.stdin, proc.stdout, proc.stderr)):
                    os.set_blocking(file.fileno(), False)
                for pipe in ((proc.stdout, job.stdout, prefix), (proc.stderr, job.stderr, prefix)):
                    run.pipes.append(pipe)
                    self._sel.register(pipe[0], selectors.EVENT_READ, partial(self._read, *pipe))
                fd = os.pidfd_open(proc.pid)  # readable once the rank exits
                self._sel.register(fd, selectors.EVENT_READ, partial(self._reap, run, proc, fd))
        except Exception as exc:  # noqa: BLE001 - a bad argv fails its job, not the loop
            run.failure, run.deadline = (127, f"launch failed: {exc}"), 0.0
        self._runs.add(run)
        self._reap(run)  # seals at once when no rank started

    def _read(self, file, capture, prefix: str, final: bool = False) -> None:
        """Move what ``file`` holds into ``capture``; close it at EOF, or once dry if ``final``."""
        try:
            chunk = os.read(file.fileno(), 1 << 16)
        except BlockingIOError:
            if not final:
                return
            chunk = b""
        *lines, rest = (self._partial.pop(file, b"") + chunk).split(b"\n")
        if chunk:
            self._partial[file] = rest
        elif rest:
            lines.append(rest)  # the last line had no newline
        for line in lines:
            capture.write_line(prefix + line.rstrip(b"\r").decode(errors="replace"))
        if not chunk:
            self._drop(file)

    def _feed(self, run: _Run, eof: bool = False) -> None:
        """Copy the job's stdin channel into rank 0 without blocking; close it at ``eof``."""
        if run.stdin is None or run.stdin.closed:
            return
        if run.stdin in self._sel.get_map():
            self._sel.unregister(run.stdin)
        try:
            while (line := run.job.stdin.read_line(timeout=0)) is not None:
                run.inbuf += (line + "\n").encode()
            eof = True
        except TimeoutError:  # nothing more queued yet
            pass
        try:
            run.inbuf = run.inbuf[os.write(run.stdin.fileno(), run.inbuf):]
        except BlockingIOError:
            pass
        except OSError:  # rank 0 exited or closed its stdin
            eof, run.inbuf = True, b""
        if run.inbuf:  # the pipe is full: go on once rank 0 reads
            self._sel.register(run.stdin, selectors.EVENT_WRITE, partial(self._feed, run))
        elif eof:
            self._drop(run.stdin)

    def _drop(self, file) -> None:
        if file in self._sel.get_map():
            self._sel.unregister(file)
        file.close()

    def _reap(self, run: _Run, proc: subprocess.Popen | None = None, pidfd: int = -1) -> None:
        """Collect a rank's exit; once every rank is in, drain the pipes and seal."""
        if proc is not None:
            self._sel.unregister(pidfd)
            os.close(pidfd)
            proc.wait()
        if any(p.returncode is None for p in run.procs):
            return
        self._runs.discard(run)
        for file, capture, prefix in run.pipes:
            while not file.closed:
                self._read(file, capture, prefix, final=True)
        if run.stdin is not None and not run.stdin.closed:
            self._drop(run.stdin)
        run.job.stdin.close()
        code = next((p.returncode for p in run.procs if p.returncode), 0)
        _finish(run.job, run, *(run.failure or (code, None)))


class CallableBackend(ExecutionBackend):
    """Run Python callables — sequential or as minimpi parallel programs."""

    def __init__(self, network=None) -> None:
        self.network = network  # forwarded to run_mpi for parallel jobs

    def launch(self, job: Job) -> ExecutionHandle:
        if job.request.callable is None:
            raise JobError(f"job {job.id} has no callable; CallableBackend cannot run it")
        handle = ExecutionHandle(job)
        t = threading.Thread(target=self._run, args=(job, handle), daemon=True,
                             name=f"exec-{job.id}")
        t.start()
        return handle

    def _run(self, job: Job, handle: ExecutionHandle) -> None:
        fn = job.request.callable
        try:
            if job.request.kind is JobKind.PARALLEL:
                from repro.minimpi import run_mpi

                job.result = run_mpi(
                    fn,
                    job.request.n_tasks,
                    network=self.network,
                    timeout=job.request.timeout_s or 120.0,
                )
            else:
                job.result = fn(job)
            _finish(job, handle, exit_code=0)
        except BaseException as exc:  # noqa: BLE001 - user code
            job.stderr.write_text(f"{type(exc).__name__}: {exc}")
            _finish(job, handle, exit_code=1, error=str(exc))


class SimulatedBackend(ExecutionBackend):
    """Advance a DES clock instead of doing work.

    ``launch`` schedules a completion event ``sim_duration`` virtual
    seconds ahead on the supplied :class:`Simulator`; the caller drives
    ``sim.run()``.  Used by the scheduling benchmarks (thousands of jobs,
    zero real work).
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def launch(self, job: Job) -> ExecutionHandle:
        if job.request.sim_duration is None:
            raise JobError(f"job {job.id} has no sim_duration; SimulatedBackend cannot run it")
        handle = ExecutionHandle(job)
        ev = self.sim.timeout(float(job.request.sim_duration))

        def complete(_ev) -> None:
            if handle.cancel_requested or handle.epoch != job.attempt_epoch:
                _finish(job, handle, exit_code=-1)
            else:
                job.stdout.write_line(f"simulated job {job.id} ran {job.request.sim_duration}s")
                _finish(job, handle, exit_code=0)

        self.sim._subscribe(ev, complete)
        return handle
