"""Distributed schedule exploration: cluster workload + portal endpoints."""

import pytest

from repro._errors import JobError
from repro.cluster.job import JobRequest
from repro.cluster.workloads import ExploreJobSpec, run_exploration
from repro.interleave.explorer import STOP_EXHAUSTED, explore
from repro.labs.explore import program
from repro.portal.client import PortalError


class TestRunExploration:
    @pytest.mark.parametrize(
        "lab_id,variant", [("lab6", "broken"), ("lab6", "fixed"), ("lab1", "broken")]
    )
    def test_matches_solo_dpor(self, callable_distributor, lab_id, variant):
        factory = program(lab_id, variant)
        spec = ExploreJobSpec(partitions=3, seed_schedules=2, wave_budget=128)
        dist = run_exploration(callable_distributor, factory, spec)
        solo = explore(factory, max_schedules=100_000, strategy="dpor")
        assert dist.stop_reason == solo.stop_reason == STOP_EXHAUSTED
        assert dist.finding_set() == solo.finding_set()
        assert dist.schedules_run == solo.schedules_run

    def test_single_partition_degenerates_gracefully(self, callable_distributor):
        factory = program("lab1", "broken")
        spec = ExploreJobSpec(partitions=1, seed_schedules=1, wave_budget=128)
        result = run_exploration(callable_distributor, factory, spec)
        solo = explore(factory, max_schedules=100_000, strategy="dpor")
        assert result.finding_set() == solo.finding_set()

    def test_seed_exhausts_without_dispatch(self, callable_distributor):
        """A generous seed budget finishes on the coordinator alone."""
        factory = program("lab1", "fixed")
        spec = ExploreJobSpec(partitions=4, seed_schedules=1000)
        result = run_exploration(callable_distributor, factory, spec)
        assert result.stop_reason == STOP_EXHAUSTED
        assert not callable_distributor.jobs, "no worker jobs were needed"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ExploreJobSpec(partitions=0)
        with pytest.raises(ValueError):
            ExploreJobSpec(max_waves=0)

    def test_callable_routing_on_subprocess_backend(self, portal_app):
        """An argv-oriented distributor transparently runs callable jobs."""
        distributor = portal_app.proxy.distributor
        job = distributor.submit(JobRequest(name="c", callable=lambda job: 41 + 1))
        assert distributor.wait_all(10)
        assert job.result == 42


class TestPortalExplore:
    def _wait_report(self, client, job_id, timeout=30.0):
        client.wait_for_job(job_id, timeout=timeout)
        envelope = client.explore_report(job_id)
        assert envelope["ready"], envelope
        return envelope["report"]

    def test_dpor_explore_roundtrip(self, student_client):
        job = student_client.explore("lab6", "broken", max_schedules=500)
        report = self._wait_report(student_client, job["id"])
        assert report["algorithm"] == "dpor"
        assert report["stop_reason"] == "exhausted"
        assert report["deadlocks"], "the philosophers deadlock must be witnessed"

    def test_naive_explore_roundtrip(self, student_client):
        job = student_client.explore("lab1", "broken", algorithm="naive",
                                     max_schedules=500)
        report = self._wait_report(student_client, job["id"])
        assert report["algorithm"] == "dfs"
        assert report["violations"]

    def test_distributed_explore_roundtrip(self, admin_client):
        job = admin_client.explore("lab6", "fixed", algorithm="dpor-distributed",
                                   max_schedules=500)
        report = self._wait_report(admin_client, job["id"], timeout=60.0)
        assert report["stop_reason"] == "exhausted"
        assert report["clean"]

    def test_report_not_ready_before_completion(self, student_client):
        job = student_client.explore("lab6", "broken", max_schedules=500)
        envelope = student_client.explore_report(job["id"])
        assert set(envelope) >= {"state", "ready"}
        student_client.wait_for_job(job["id"], timeout=30.0)

    def test_ownership_enforced(self, student_client, admin_client):
        job = admin_client.explore("lab6", "broken", max_schedules=100)
        admin_client.wait_for_job(job["id"], timeout=30.0)
        with pytest.raises(PortalError):
            student_client.explore_report(job["id"])

    def test_unknown_lab_rejected(self, student_client):
        with pytest.raises(PortalError):
            student_client.explore("lab99")

    def test_unknown_algorithm_rejected(self, student_client):
        with pytest.raises(PortalError):
            student_client.explore("lab1", algorithm="quantum")

    def test_explore_job_listed_with_owner(self, student_client):
        job = student_client.explore("lab1", "fixed", max_schedules=200)
        student_client.wait_for_job(job["id"], timeout=30.0)
        listed = {j["id"]: j for j in student_client.jobs()}
        assert job["id"] in listed
        assert listed[job["id"]]["name"] == "explore-lab1-fixed"


class TestServiceValidation:
    def test_bad_max_schedules(self, portal_app):
        with pytest.raises(JobError):
            portal_app.proxy.explore("admin", "lab1", max_schedules=0)
