"""Node failure injection and recovery."""

import pytest

from repro._errors import ResourceError
from repro.cluster import (
    ClusterSpec,
    FaultInjector,
    Grid,
    JobDistributor,
    JobRequest,
    JobState,
    NodeState,
    SimulatedBackend,
)
from repro.desim import Simulator


@pytest.fixture
def setup():
    sim = Simulator()
    grid = Grid(ClusterSpec.small(segments=1, slaves=3, cores=2))
    dist = JobDistributor(grid, SimulatedBackend(sim), now_fn=lambda: sim.now)
    return sim, grid, dist


class TestKill:
    def test_running_job_fails_when_node_dies(self, setup):
        sim, grid, dist = setup
        job = dist.submit(JobRequest(name="victim", sim_duration=100.0))
        node_name = next(iter(job.placement))
        injector = FaultInjector(dist)
        affected = injector.kill_node(node_name)
        assert affected == [job.id]
        assert job.state is JobState.FAILED
        assert "failed" in job.error
        assert grid.node(node_name).state is NodeState.DOWN

    def test_idle_node_kill_affects_nothing(self, setup):
        sim, grid, dist = setup
        injector = FaultInjector(dist)
        affected = injector.kill_node("seg-0-n02")
        assert affected == []

    def test_double_kill_rejected(self, setup):
        _, _, dist = setup
        injector = FaultInjector(dist)
        injector.kill_node("seg-0-n00")
        with pytest.raises(ResourceError):
            injector.kill_node("seg-0-n00")

    def test_kill_random_node_deterministic_by_seed(self, setup):
        _, _, dist = setup
        name1, _ = FaultInjector(dist, seed=5).kill_random_node()
        assert name1 in {"seg-0-n00", "seg-0-n01", "seg-0-n02"}

    def test_capacity_shrinks_while_down(self, setup):
        sim, grid, dist = setup
        assert grid.cores_total == 6
        FaultInjector(dist).kill_node("seg-0-n00")
        assert grid.cores_free == 4  # only up nodes expose capacity


class TestRecovery:
    def test_revive_restores_capacity(self, setup):
        sim, grid, dist = setup
        injector = FaultInjector(dist)
        injector.kill_node("seg-0-n00")
        injector.revive_node("seg-0-n00")
        assert grid.node("seg-0-n00").state is NodeState.UP
        assert grid.cores_free == 6

    def test_revive_unkilled_rejected(self, setup):
        _, _, dist = setup
        with pytest.raises(ResourceError):
            FaultInjector(dist).revive_node("seg-0-n01")

    def test_revive_all(self, setup):
        _, grid, dist = setup
        injector = FaultInjector(dist)
        injector.kill_node("seg-0-n00")
        injector.kill_node("seg-0-n01")
        injector.revive_all()
        assert all(n.state is NodeState.UP for n in grid.compute_nodes())

    def test_queued_work_flows_after_revival(self, setup):
        sim, grid, dist = setup
        injector = FaultInjector(dist)
        # Kill two of three nodes, fill the last, queue one more job.
        injector.kill_node("seg-0-n00")
        injector.kill_node("seg-0-n01")
        j1 = dist.submit(JobRequest(name="runs", sim_duration=50.0, cores_per_task=2))
        j2 = dist.submit(JobRequest(name="stuck", sim_duration=5.0, cores_per_task=2))
        assert j2.state is JobState.QUEUED
        injector.revive_node("seg-0-n00")  # dispatch retriggers
        assert j2.state is JobState.RUNNING
        sim.run()
        assert j1.state is JobState.COMPLETED and j2.state is JobState.COMPLETED

    def test_no_up_nodes_left(self, setup):
        _, _, dist = setup
        injector = FaultInjector(dist)
        for name in ("seg-0-n00", "seg-0-n01", "seg-0-n02"):
            injector.kill_node(name)
        with pytest.raises(ResourceError):
            injector.kill_random_node()


class TestDrain:
    def test_drain_lets_running_job_finish(self, setup):
        sim, grid, dist = setup
        injector = FaultInjector(dist)
        job = dist.submit(JobRequest(name="running", sim_duration=10.0))
        node_name = next(iter(job.placement))
        victims = injector.drain_node(node_name)
        assert victims == (job.id,)
        assert grid.node(node_name).state is NodeState.DRAINING
        sim.run()
        assert job.state is JobState.COMPLETED  # drain never kills work

    def test_draining_node_gets_no_new_work(self, setup):
        sim, grid, dist = setup
        injector = FaultInjector(dist)
        injector.drain_node("seg-0-n00")
        for i in range(4):
            dist.submit(JobRequest(name=f"j{i}", sim_duration=1.0, cores_per_task=2))
        sim.run()
        placed_nodes = {n for j in dist.jobs.values() for n in j.placement}
        assert "seg-0-n00" not in placed_nodes

    def test_maintenance_done_requires_idle(self, setup):
        sim, grid, dist = setup
        injector = FaultInjector(dist)
        job = dist.submit(JobRequest(name="busy", sim_duration=10.0))
        node_name = next(iter(job.placement))
        injector.drain_node(node_name)
        with pytest.raises(ResourceError, match="still runs"):
            injector.maintenance_done(node_name)
        sim.run()
        injector.maintenance_done(node_name)
        assert grid.node(node_name).state is NodeState.UP

    def test_maintenance_cycle_restores_capacity(self, setup):
        sim, grid, dist = setup
        injector = FaultInjector(dist)
        before = grid.cores_free
        injector.drain_node("seg-0-n01")
        assert grid.cores_free == before - 2  # draining hides capacity
        injector.maintenance_done("seg-0-n01")
        assert grid.cores_free == before
