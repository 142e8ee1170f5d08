"""Workload generator, instructor reports, and the portal CLI."""

import numpy as np
import pytest

from repro.cluster import (
    BackfillScheduler,
    ClusterSpec,
    Grid,
    JobDistributor,
    SimulatedBackend,
    WorkloadSpec,
    generate_requests,
    run_workload,
)
from repro.desim import Simulator
from repro.education import SemesterSimulation, gradebook_csv, instructor_report
from repro.portal.__main__ import build_parser


class TestWorkloadSpec:
    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(n_jobs=0)
        with pytest.raises(ValueError):
            WorkloadSpec(arrival_rate_per_s=0)
        with pytest.raises(ValueError):
            WorkloadSpec(parallel_fraction=1.5)

    def test_offered_load_scales_with_rate(self):
        low = WorkloadSpec(arrival_rate_per_s=1.0).offered_load_core_s_per_s
        high = WorkloadSpec(arrival_rate_per_s=4.0).offered_load_core_s_per_s
        assert high == pytest.approx(low * 4)

    def test_generate_is_deterministic(self):
        a = generate_requests(WorkloadSpec(n_jobs=20), seed=5)
        b = generate_requests(WorkloadSpec(n_jobs=20), seed=5)
        assert [(t, r.name, r.n_tasks, r.sim_duration) for t, r in a] == [
            (t, r.name, r.n_tasks, r.sim_duration) for t, r in b
        ]

    def test_arrivals_sorted_and_positive(self):
        reqs = generate_requests(WorkloadSpec(n_jobs=50), seed=1)
        times = [t for t, _ in reqs]
        assert times == sorted(times) and times[0] > 0

    def test_parallel_fraction_respected(self):
        reqs = generate_requests(WorkloadSpec(n_jobs=400, parallel_fraction=0.5), seed=2)
        frac = np.mean([r.n_tasks > 1 for _, r in reqs])
        assert frac == pytest.approx(0.5, abs=0.08)

    def test_estimates_never_undershoot(self):
        reqs = generate_requests(WorkloadSpec(n_jobs=100), seed=3)
        assert all(r.est_runtime_s >= r.sim_duration for _, r in reqs)


class TestRunWorkload:
    def test_everything_completes(self):
        sim = Simulator()
        dist = JobDistributor(
            Grid(ClusterSpec.uhd_default()), SimulatedBackend(sim),
            BackfillScheduler(), now_fn=lambda: sim.now,
        )
        spec = WorkloadSpec(n_jobs=80, arrival_rate_per_s=4.0)
        summary = run_workload(dist, sim, spec, seed=4)
        assert summary["by_state"] == {"completed": 80}
        assert summary["makespan_s"] > 0

    def test_arrivals_spread_over_time(self):
        """Jobs must arrive at their Poisson instants, not all at t=0."""
        sim = Simulator()
        dist = JobDistributor(
            Grid(ClusterSpec.uhd_default()), SimulatedBackend(sim), now_fn=lambda: sim.now
        )
        run_workload(dist, sim, WorkloadSpec(n_jobs=40, arrival_rate_per_s=1.0), seed=5)
        submits = [j.submitted_at for j in dist.jobs.values()]
        assert max(submits) - min(submits) > 10.0

    def test_higher_load_longer_waits(self):
        def mean_wait(rate):
            sim = Simulator()
            dist = JobDistributor(
                Grid(ClusterSpec.small(segments=1, slaves=2, cores=2)),
                SimulatedBackend(sim), now_fn=lambda: sim.now,
            )
            spec = WorkloadSpec(n_jobs=100, arrival_rate_per_s=rate, parallel_fraction=0.0)
            return run_workload(dist, sim, spec, seed=6)["mean_wait_s"]

        assert mean_wait(5.0) > mean_wait(0.2)


class TestInstructorReports:
    @pytest.fixture(scope="class")
    def report(self):
        return SemesterSimulation().run()

    def test_gradebook_csv_structure(self, report):
        text = gradebook_csv(report.cohort)
        lines = text.strip().splitlines()
        assert len(lines) == 1 + 19
        header = lines[0].split(",")
        assert header[0] == "student_id"
        assert "lab3" in header and "final" in header and "passed_course" in header
        # every row parses as CSV with the same arity
        assert all(len(l.split(",")) == len(header) for l in lines[1:])

    def test_gradebook_outcomes_match_flags(self, report):
        text = gradebook_csv(report.cohort)
        yes = sum(1 for l in text.splitlines()[1:] if l.endswith(",yes"))
        assert yes == sum(s.passed_course for s in report.cohort)

    def test_instructor_report_contents(self, report):
        text = instructor_report(report)
        assert "Table 1" in text and "Table 2" in text and "Table 3" in text
        assert "hardest assignment" in text
        assert "UMA and NUMA" in text  # lab 3 is the hardest by construction


class TestPortalCli:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.port == 8080 and args.host == "127.0.0.1"
        assert args.root is None and not args.small

    def test_all_flags(self):
        args = build_parser().parse_args(
            ["--host", "0.0.0.0", "--port", "9000", "--root", "/tmp/x",
             "--admin-password", "pw", "--quota-mb", "64", "--small"]
        )
        assert args.host == "0.0.0.0" and args.port == 9000
        assert args.quota_mb == 64 and args.small

    def test_cli_serves_real_requests(self, tmp_path):
        """Boot via the CLI plumbing (not serve()) and hit it over TCP."""
        from repro.cluster.spec import ClusterSpec
        from repro.portal import PortalClient, make_default_app
        from repro.portal.server import start_background

        app = make_default_app(str(tmp_path / "h"), cluster_spec=ClusterSpec.small(),
                               admin_password="cli-pass", quota_bytes=1024 * 1024)
        httpd, url = start_background(app)
        try:
            client = PortalClient(base_url=url)
            client.login("admin", "cli-pass")
            assert client.quota()["quota_bytes"] == 1024 * 1024
        finally:
            httpd.shutdown()
            httpd.server_close()
