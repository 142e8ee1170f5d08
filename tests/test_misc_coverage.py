"""Smaller behaviours not covered elsewhere: queues, requests, errors,
analytics edges, segment helpers."""

import pytest

from repro._errors import (
    AuthenticationError,
    CompilationError,
    DeadlockError,
    MPIError,
    PathTraversalError,
    PortalError,
    ReproError,
    SchedulingError,
)
from repro.cluster import Job, JobQueue, JobRequest, JobState, Segment, SegmentSpec
from repro.education.analytics import shape_agreement
from repro.minimpi import Request


class TestErrorHierarchy:
    def test_everything_is_reproerror(self):
        for exc_cls in (AuthenticationError, CompilationError, DeadlockError,
                        MPIError, PathTraversalError, SchedulingError):
            assert issubclass(exc_cls, ReproError)

    def test_path_traversal_is_portal_error(self):
        assert issubclass(PathTraversalError, PortalError)

    def test_compilation_error_carries_diagnostics(self):
        exc = CompilationError("failed", diagnostics="line 3: boom")
        assert exc.diagnostics == "line 3: boom"

    def test_deadlock_error_carries_cycle(self):
        exc = DeadlockError("dl", cycle=[("a", "m1"), ("b", "m2")])
        assert exc.cycle == [("a", "m1"), ("b", "m2")]
        assert DeadlockError("dl").cycle == []


class TestJobQueue:
    def make_job(self, name="j"):
        job = Job(JobRequest(name=name, sim_duration=1.0))
        job.transition(JobState.QUEUED)
        return job

    def test_push_requires_queued_state(self):
        q = JobQueue()
        pending = Job(JobRequest(name="p", sim_duration=1.0))
        with pytest.raises(SchedulingError):
            q.push(pending)

    def test_head_and_order(self):
        q = JobQueue()
        a, b = self.make_job("a"), self.make_job("b")
        q.push(a)
        q.push(b)
        assert q.head() is a
        assert [j.request.name for j in q] == ["a", "b"]

    def test_remove_missing_returns_false(self):
        q = JobQueue()
        assert not q.remove(self.make_job())

    def test_empty_head_is_none(self):
        assert JobQueue().head() is None


class TestRequestHelpers:
    def test_testall_incomplete(self):
        reqs = [Request("irecv"), Request("irecv")]
        reqs[0]._complete("x")
        done, values = Request.testall(reqs)
        assert not done and values is None

    def test_testall_complete(self):
        reqs = [Request("irecv"), Request("irecv")]
        for i, r in enumerate(reqs):
            r._complete(i)
        done, values = Request.testall(reqs)
        assert done and values == [0, 1]

    def test_wait_timeout_raises(self):
        with pytest.raises(MPIError, match="timed out"):
            Request("irecv").wait(timeout=0.01)

    def test_failed_request_reraises_on_test(self):
        req = Request("irecv")
        req._complete(exc=ValueError("boom"))
        with pytest.raises(ValueError):
            req.test()

    def test_cancel_flag(self):
        req = Request("irecv")
        req.cancel()
        assert req._cancelled and not req.completed


class TestShapeAgreement:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            shape_agreement([1, 2], [1, 2, 3])

    def test_perfect_match(self):
        result = shape_agreement([0.1, 0.5, 0.9], [0.1, 0.5, 0.9])
        assert result["max_abs_deviation"] == 0.0
        assert result["exact_rank_match"]
        assert result["rank_correlation"] == pytest.approx(1.0)

    def test_inverted_ranks_detected(self):
        result = shape_agreement([0.1, 0.5, 0.9], [0.9, 0.5, 0.1])
        assert not result["exact_rank_match"]
        assert result["rank_correlation"] == pytest.approx(-1.0)

    def test_constant_series_rank_corr_defined(self):
        result = shape_agreement([0.5, 0.5], [0.4, 0.6])
        assert result["rank_correlation"] == pytest.approx(1.0)  # tie ranks still correlate


class TestSegment:
    def test_master_not_among_slaves(self):
        seg = Segment(SegmentSpec("s", n_slaves=3))
        assert len(seg) == 3
        assert seg.master.name not in {n.name for n in seg}

    def test_load_fraction(self):
        seg = Segment(SegmentSpec("s", n_slaves=2))
        assert seg.load == 0.0
        seg.slaves[0].allocate("j", 1)
        assert seg.load == pytest.approx(1 / 4)

    def test_up_slaves_excludes_down(self):
        seg = Segment(SegmentSpec("s", n_slaves=2))
        seg.slaves[0].mark_down()
        assert len(seg.up_slaves()) == 1


class TestSimulatorCounters:
    def test_processed_events_counts(self):
        from repro.desim import Simulator

        sim = Simulator()
        for _ in range(5):
            sim.timeout(1.0)
        sim.run()
        assert sim.processed_events == 5
