"""Live-streaming subprocess execution: output and stdin *during* the run."""

import os
import threading
import time

import pytest

from repro.cluster import (
    ClusterSpec,
    Grid,
    JobDistributor,
    JobKind,
    JobRequest,
    JobState,
    SubprocessBackend,
)
from repro.cluster.faults import FaultInjector
from repro.cluster.job import Job
from repro.cluster.streams import InteractiveChannel


@pytest.fixture
def dist():
    return JobDistributor(Grid(ClusterSpec.small()), SubprocessBackend())


def wait_until(pred, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.02)
    return False


def wait_for_line(job, needle: str, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if any(needle in line for line in job.stdout.tail(50)):
            return True
        time.sleep(0.02)
    return False


class TestLiveOutput:
    def test_output_visible_while_running(self, dist):
        prog = (
            "import time\n"
            "print('early line', flush=True)\n"
            "time.sleep(1.0)\n"
            "print('late line', flush=True)\n"
        )
        job = dist.submit(JobRequest(name="live", argv=["python3", "-c", prog], timeout_s=30))
        assert wait_for_line(job, "early line")
        # The process is still running: late line must NOT be there yet.
        assert job.state is JobState.RUNNING
        assert not any("late line" in l for l in job.stdout.tail())
        assert dist.wait_all(30)
        assert job.stdout.tail(10) == ["early line", "late line"]

    def test_incremental_polling_matches_emission(self, dist):
        prog = (
            "import time\n"
            "for i in range(5):\n"
            "    print(f'tick {i}', flush=True)\n"
            "    time.sleep(0.1)\n"
        )
        job = dist.submit(JobRequest(name="ticks", argv=["python3", "-c", prog], timeout_s=30))
        collected, offset = [], 0
        deadline = time.monotonic() + 20
        while not job.terminal and time.monotonic() < deadline:
            lines, offset, _ = job.stdout.read_since(offset)
            collected.extend(lines)
            time.sleep(0.05)
        lines, offset, _ = job.stdout.read_since(offset)
        collected.extend(lines)
        assert collected == [f"tick {i}" for i in range(5)]

    def test_stderr_also_streams(self, dist):
        prog = "import sys; print('to err', file=sys.stderr, flush=True); import time; time.sleep(0.5)"
        job = dist.submit(JobRequest(name="err", argv=["python3", "-c", prog], timeout_s=30))
        deadline = time.monotonic() + 10
        seen = False
        while time.monotonic() < deadline:
            if "to err" in job.stderr.tail(10):
                seen = True
                break
            time.sleep(0.02)
        assert seen
        dist.wait_all(30)


class TestLiveInput:
    def test_stdin_sent_mid_run(self, dist):
        prog = (
            "import sys\n"
            "print('ready', flush=True)\n"
            "line = sys.stdin.readline().strip()\n"
            "print(f'got {line}', flush=True)\n"
        )
        job = dist.submit(
            JobRequest(name="inter", kind=JobKind.INTERACTIVE,
                       argv=["python3", "-c", prog], timeout_s=30)
        )
        assert wait_for_line(job, "ready")
        job.stdin.write("mid-run-input\n")
        assert dist.wait_all(30)
        assert job.state is JobState.COMPLETED
        assert "got mid-run-input" in job.stdout.tail(10)

    def test_multiple_exchanges(self, dist):
        prog = (
            "import sys\n"
            "for i in range(3):\n"
            "    print(f'ask {i}', flush=True)\n"
            "    value = sys.stdin.readline().strip()\n"
            "    print(f'answer {value}', flush=True)\n"
        )
        job = dist.submit(
            JobRequest(name="chat", kind=JobKind.INTERACTIVE,
                       argv=["python3", "-c", prog], timeout_s=30)
        )
        for i in range(3):
            assert wait_for_line(job, f"ask {i}")
            job.stdin.write(f"v{i}\n")
        assert dist.wait_all(30)
        out = job.stdout.tail(20)
        assert [l for l in out if l.startswith("answer")] == ["answer v0", "answer v1", "answer v2"]

    def test_pre_supplied_stdin_still_works(self, dist):
        job = dist.submit(
            JobRequest(name="pre", argv=["python3", "-c", "print(input()[::-1])"],
                       stdin_data="stream\n", timeout_s=30)
        )
        assert dist.wait_all(30)
        assert job.stdout.tail() == ["maerts"]


class TestControl:
    def test_cancel_kills_promptly(self, dist):
        job = dist.submit(
            JobRequest(name="sleepy", argv=["python3", "-c", "import time; time.sleep(60)"],
                       timeout_s=120)
        )
        deadline = time.monotonic() + 5
        while job.state is not JobState.RUNNING and time.monotonic() < deadline:
            time.sleep(0.01)
        t0 = time.monotonic()
        dist.cancel(job.id)
        assert dist.wait_all(10)
        assert job.state is JobState.CANCELLED
        assert time.monotonic() - t0 < 3.0

    def test_timeout_in_streaming_mode(self, dist):
        job = dist.submit(
            JobRequest(name="hang", argv=["python3", "-c", "import time; time.sleep(60)"],
                       timeout_s=0.3)
        )
        assert dist.wait_all(30)
        assert job.state is JobState.TIMEOUT


# Each rank prints "pid <n>" and then sleeps far past any test's patience.
SLEEPER = "import os, time; print('pid', os.getpid(), flush=True); time.sleep(30)"


def gone(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def start_ranks(dist, **kw):
    """Submit a 2-rank SLEEPER job; return it with both ranks' pids."""
    job = dist.submit(JobRequest(name="ranks", kind=JobKind.PARALLEL, n_tasks=2,
                                 argv=["python3", "-c", SLEEPER], **kw))
    assert wait_until(lambda: len(job.stdout.tail(10)) == 2)
    return job, [int(line.split()[-1]) for line in job.stdout.tail(10)]


class TestParallel:
    def test_output_live_and_stdin_reaches_rank0(self):
        # Through the distributor only single-task INTERACTIVE jobs keep an
        # open stdin channel, so this drives the backend with a placed job.
        prog = (
            "import os, sys\n"
            "print('up', flush=True)\n"
            "if os.environ['REPRO_RANK'] == '0':\n"
            "    print('got', sys.stdin.readline().strip(), flush=True)\n"
        )
        job = Job(JobRequest(name="par", kind=JobKind.PARALLEL, n_tasks=2,
                             argv=["python3", "-c", prog]))
        job.stdin = InteractiveChannel()
        job.placement = {"node-a": 1, "node-b": 1}
        job.transition(JobState.QUEUED)
        job.transition(JobState.RUNNING)
        handle = SubprocessBackend().launch(job)
        assert wait_for_line(job, "[rank 0] up")
        assert wait_for_line(job, "[rank 1] up")
        assert job.state is JobState.RUNNING  # rank 0 still waits for its input
        job.stdin.write("hello\n")
        assert handle.wait(30)
        assert handle.exit_code == 0 and handle.error is None  # a bare backend only reports
        assert sorted(job.stdout.tail(10)) == ["[rank 0] got hello", "[rank 0] up", "[rank 1] up"]

    def test_rank_killed_by_signal_fails_the_job(self, dist):
        prog = (
            "import os, signal\n"
            "if os.environ['REPRO_RANK'] == '1':\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        job = dist.submit(JobRequest(name="sig", kind=JobKind.PARALLEL, n_tasks=2,
                                     argv=["python3", "-c", prog]))
        assert dist.wait_all(30)
        assert job.state is JobState.FAILED
        assert job.exit_code == -9

    def test_cancel_kills_every_rank(self, dist):
        job, pids = start_ranks(dist)
        t0 = time.monotonic()
        dist.cancel(job.id)
        assert dist.wait_all(5)
        assert time.monotonic() - t0 < 3.0
        assert job.state is JobState.CANCELLED
        assert wait_until(lambda: all(gone(pid) for pid in pids), 3.0)

    def test_node_loss_kills_every_rank(self, dist):
        job, pids = start_ranks(dist)
        FaultInjector(dist).kill_node(next(iter(job.placement)))
        assert job.state is JobState.FAILED
        assert wait_until(lambda: all(gone(pid) for pid in pids), 3.0)

    def test_timeout_kills_every_rank(self, dist):
        job, pids = start_ranks(dist, timeout_s=1.0)
        assert dist.wait_all(5)
        assert job.state is JobState.TIMEOUT
        assert wait_until(lambda: all(gone(pid) for pid in pids), 3.0)


class TestUndecodableOutput:
    BAD = "import sys; sys.stdout.buffer.write(b'bad \\xff byte\\n'); sys.stdout.flush(); "

    def test_bad_byte_is_replaced(self, dist):
        job = dist.submit(JobRequest(name="bad", argv=["python3", "-c", self.BAD + "print('after')"],
                                     timeout_s=30))
        assert dist.wait_all(30)
        assert job.state is JobState.COMPLETED
        assert job.stdout.tail() == ["bad \ufffd byte", "after"]

    def test_bad_byte_then_a_full_pipe_completes(self, dist):
        prog = self.BAD + "[print('x' * 79) for _ in range(10_000)]"
        job = dist.submit(JobRequest(name="flood", argv=["python3", "-c", prog], timeout_s=5))
        assert dist.wait_all(30)
        assert job.state is JobState.COMPLETED
        assert job.stdout.tail(1) == ["x" * 79]


class TestOneLoop:
    def test_one_io_thread_for_all_jobs_and_none_when_idle(self, dist):
        # Only the backend's own threads count: another test's server or
        # fleet may start or stop threads of its own meanwhile.
        def io_threads() -> int:
            return sum(t.name == "subprocess-io" for t in threading.enumerate())

        # Let I/O threads of earlier tests' backends finish exiting first.
        assert wait_until(lambda: io_threads() == 0)
        prog = "import time; print('hi', flush=True); time.sleep(0.5)"
        jobs = [dist.submit(JobRequest(name=f"s{i}", argv=["python3", "-c", prog]))
                for i in range(4)]
        jobs.append(dist.submit(JobRequest(name="p", kind=JobKind.PARALLEL, n_tasks=2,
                                           argv=["python3", "-c", prog])))
        peak = 0
        while not all(job.terminal for job in jobs):
            peak = max(peak, io_threads())
            time.sleep(0.01)
        assert dist.wait_all(30)
        assert all(job.state is JobState.COMPLETED for job in jobs)
        assert peak == 1
        assert wait_until(lambda: io_threads() == 0, 5.0)
