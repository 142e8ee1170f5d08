"""Job lifecycle, requests, and stream capture."""

import threading
import time

import pytest

from repro._errors import JobError
from repro.cluster import (
    InteractiveChannel,
    Job,
    JobKind,
    JobRequest,
    JobState,
    StreamCapture,
)


class TestJobRequestValidation:
    def test_exactly_one_payload_required(self):
        with pytest.raises(JobError):
            JobRequest(name="none")  # no payload at all
        with pytest.raises(JobError):
            JobRequest(name="two", argv=["x"], sim_duration=1.0)

    def test_sequential_must_be_single_task(self):
        with pytest.raises(JobError):
            JobRequest(name="bad", argv=["x"], kind=JobKind.SEQUENTIAL, n_tasks=2)

    def test_interactive_must_be_single_task(self):
        with pytest.raises(JobError):
            JobRequest(name="bad", argv=["x"], kind=JobKind.INTERACTIVE, n_tasks=2)

    def test_invalid_shape_rejected(self):
        with pytest.raises(JobError):
            JobRequest(name="bad", argv=["x"], n_tasks=0)
        with pytest.raises(JobError):
            JobRequest(name="bad", argv=["x"], cores_per_task=0)
        with pytest.raises(JobError):
            JobRequest(name="bad", argv=["x"], memory_mb_per_task=-1)

    def test_total_cores(self):
        req = JobRequest(name="p", sim_duration=1.0, kind=JobKind.PARALLEL,
                         n_tasks=4, cores_per_task=2)
        assert req.total_cores == 8


class TestJobLifecycle:
    def make(self):
        return Job(JobRequest(name="j", sim_duration=1.0))

    def test_happy_path(self):
        job = self.make()
        assert job.state is JobState.PENDING
        job.transition(JobState.QUEUED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.COMPLETED)
        assert job.terminal

    def test_illegal_transitions_raise(self):
        job = self.make()
        with pytest.raises(JobError):
            job.transition(JobState.RUNNING)  # must queue first
        job.transition(JobState.QUEUED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.FAILED)
        with pytest.raises(JobError):
            job.transition(JobState.RUNNING)  # terminal is terminal

    def test_cancel_from_every_live_state(self):
        for path in ([], [JobState.QUEUED], [JobState.QUEUED, JobState.RUNNING]):
            job = self.make()
            for st in path:
                job.transition(st)
            job.transition(JobState.CANCELLED)
            assert job.terminal

    def test_try_transition_returns_bool(self):
        job = self.make()
        assert job.try_transition(JobState.QUEUED)
        assert not job.try_transition(JobState.COMPLETED)

    def test_unique_ids(self):
        ids = {Job(JobRequest(name="x", sim_duration=1.0)).id for _ in range(100)}
        assert len(ids) == 100

    def test_interactive_keeps_stdin_open(self):
        seq = Job(JobRequest(name="s", sim_duration=1.0))
        inter = Job(JobRequest(name="i", sim_duration=1.0, kind=JobKind.INTERACTIVE))
        assert seq.stdin.closed
        assert not inter.stdin.closed

    def test_describe_is_json_ready(self):
        import json

        job = self.make()
        json.dumps(job.describe())

    def test_runtime_and_wait(self):
        job = self.make()
        assert job.runtime_s is None and job.wait_s is None
        job.submitted_at, job.started_at, job.finished_at = 1.0, 3.0, 10.0
        assert job.wait_s == 2.0 and job.runtime_s == 7.0


class TestStreamCapture:
    def test_offset_polling(self):
        s = StreamCapture()
        for i in range(5):
            s.write_line(f"line{i}")
        lines, nxt, truncated = s.read_since(0)
        assert lines == [f"line{i}" for i in range(5)] and nxt == 5 and not truncated
        s.write_line("line5")
        lines, nxt, _ = s.read_since(nxt)
        assert lines == ["line5"] and nxt == 6

    def test_eviction_reports_truncation(self):
        s = StreamCapture(max_lines=3)
        for i in range(10):
            s.write_line(str(i))
        lines, nxt, truncated = s.read_since(0)
        assert truncated and lines == ["7", "8", "9"] and nxt == 10

    def test_read_since_eviction_boundary(self):
        """since exactly at the eviction edge is complete, one before is not."""
        s = StreamCapture(max_lines=3)
        for i in range(10):
            s.write_line(str(i))
        # lines 0..6 evicted; the buffer holds indices 7, 8, 9
        lines, nxt, truncated = s.read_since(7)
        assert lines == ["7", "8", "9"] and nxt == 10 and not truncated
        lines, nxt, truncated = s.read_since(6)
        assert lines == ["7", "8", "9"] and nxt == 10 and truncated
        # caught-up poller: empty read, cursor unchanged, nothing "lost"
        lines, nxt, truncated = s.read_since(10)
        assert lines == [] and nxt == 10 and not truncated
        # mid-buffer cursor copies only the tail it asks for
        lines, nxt, truncated = s.read_since(9)
        assert lines == ["9"] and nxt == 10 and not truncated

    def test_tail_copies_only_requested_lines(self):
        s = StreamCapture()
        for i in range(100):
            s.write_line(str(i))
        assert s.tail(3) == ["97", "98", "99"]
        assert s.tail(200) == [str(i) for i in range(100)]

    def test_closed_stream_drops_late_writes(self):
        s = StreamCapture()
        s.write_line("kept")
        s.close()
        s.write_line("dropped")
        assert s.tail() == ["kept"]

    def test_multiline_text(self):
        s = StreamCapture()
        s.write_text("a\nb\nc")
        assert s.text() == "a\nb\nc"

    def test_concurrent_writers_lose_nothing(self):
        s = StreamCapture(max_lines=100_000)

        def writer(tag):
            for i in range(500):
                s.write_line(f"{tag}-{i}")

        threads = [threading.Thread(target=writer, args=(t,)) for t in "abcd"]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert s.next_index == 2000


class TestInteractiveChannel:
    def test_write_then_read(self):
        ch = InteractiveChannel()
        ch.write("one\ntwo\n")
        assert ch.take() == (["one", "two"], False)

    def test_eof_after_close(self):
        ch = InteractiveChannel()
        ch.write("last")
        ch.close()
        assert ch.take() == (["last"], True)
        assert ch.take() == ([], True)

    def test_write_after_close_rejected(self):
        ch = InteractiveChannel()
        ch.close()
        with pytest.raises(ValueError):
            ch.write("x")

    def test_read_timeout(self):
        # an empty, open channel answers at once: take never blocks
        ch = InteractiveChannel()
        t0 = time.monotonic()
        assert ch.take() == ([], False)
        assert time.monotonic() - t0 < 1.0

    def test_write_wakes_the_consumer(self):
        ch = InteractiveChannel()
        woken = []
        ch.on_change = lambda: woken.append(ch.take())
        ch.write("hello")
        ch.close()
        assert woken == [(["hello"], False), ([], True)]

    def test_drain(self):
        ch = InteractiveChannel()
        ch.write("a\nb")
        assert ch.take() == (["a", "b"], False)
        assert ch.take() == ([], False)
