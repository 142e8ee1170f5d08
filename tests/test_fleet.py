"""Elastic fleets: dynamic membership, scaling policies, spot capacity.

Four layers under test:

* **membership** — nodes joining and leaving a live grid keep the
  incremental capacity index (cores_free / up-node caches / segment
  ordering) exact, and the distributor dispatches onto a join in the
  very next scheduling round;
* **heterogeneity** — ``NodeSpec.node_type`` constraint matching end to
  end: scheduler placement, submission-time validation against known
  and fleet-advertised types, backfill respecting the tag;
* **autoscaling** — the :class:`ScalingManager` tick loop (warm-up,
  cooldowns, idle-only scale-in, pool floors/ceilings, node-seconds
  accrual, decision log) plus the hypothesis no-flapping battery for
  the policy deadband and :class:`HysteresisGate`;
* **spot** — reclamation delivered as ``node_lost`` through the retry
  budget, including the crash-point race against a PR 8 checkpoint
  (zero acked jobs lost across the reboot).

Surfaces ride along: ``cluster.fleet`` RPCs over the bus and the
portal's ``/api/fleet`` + ``/debug/fleet``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._errors import PortalError, ResourceError, SchedulingError
from repro.bus import ClusterBackendService, ClusterProxy, MessageBus
from repro.cluster import (
    ClusterSpec,
    FaultInjector,
    Grid,
    JobDistributor,
    JobRequest,
    JobState,
    NodeSpec,
    RetryPolicy,
    SimulatedBackend,
)
from repro.desim import Simulator
from repro.durability import (
    DurabilityStore,
    JobJournal,
    SimulatedCrash,
    recover_distributor,
)
from repro.fleet import (
    FleetSample,
    HysteresisGate,
    NodePool,
    QueueWaitP95Policy,
    ScalingManager,
    TargetQueueDepthPolicy,
)
from repro.portal.client import PortalClient

settings.register_profile(
    "repro-fleet",
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("repro-fleet")

RETRY = RetryPolicy(
    max_attempts=4,
    backoff_base_s=0.01,
    jitter=0.0,
    retry_on=("failed", "timeout", "node_lost"),
)


def des_world(segments=1, slaves=2, cores=2, **dist_kwargs):
    """A small DES grid + distributor on virtual time."""
    sim = Simulator()
    grid = Grid(ClusterSpec.small(segments=segments, slaves=slaves, cores=cores))
    dist = JobDistributor(
        grid, SimulatedBackend(sim), now_fn=lambda: sim.now, **dist_kwargs
    )
    return sim, grid, dist


def sim_job(i, duration=5.0, **kw):
    return JobRequest(name=f"j{i}", owner="u", sim_duration=duration, **kw)


def drain(sim, dist, rounds=200):
    for _ in range(rounds):
        dist.dispatch()
        sim.run()
        if all(j.terminal for j in dist.jobs.values()):
            return
    raise AssertionError(
        f"stuck: {[(j.id, j.state.value) for j in dist.jobs.values() if not j.terminal]}"
    )


# ---------------------------------------------------------------------------
# dynamic membership: the capacity index stays exact
# ---------------------------------------------------------------------------
class TestDynamicMembership:
    def test_add_node_updates_capacity_index(self):
        _sim, grid, _dist = des_world(slaves=2, cores=2)
        before = grid.cores_free
        node = grid.add_node("seg-0", NodeSpec(cores=4))
        assert node.name == "seg-0-n02"  # monotone naming, never reused
        assert grid.cores_free == before + 4
        assert grid.cores_total == before + 4
        seg = grid.segments[0]
        assert seg.cores_up == before + 4
        assert node.name in {n.name for n in grid.up_compute_nodes()}
        assert grid.node(node.name) is node

    def test_remove_node_reverses_everything(self):
        _sim, grid, _dist = des_world(slaves=3, cores=2)
        before = grid.cores_free
        grid.remove_node("seg-0-n02")
        assert grid.cores_free == before - 2
        assert grid.get("seg-0-n02") is None
        with pytest.raises(ResourceError):
            grid.node("seg-0-n02")
        # names are never reused: the next join is n03, not n02
        node = grid.add_node("seg-0", NodeSpec(cores=2))
        assert node.name == "seg-0-n03"

    def test_masters_cannot_be_removed(self):
        _sim, grid, _dist = des_world()
        with pytest.raises(ResourceError):
            grid.remove_node(grid.master_server.name)
        with pytest.raises(ResourceError):
            grid.remove_node(grid.segments[0].master.name)

    def test_duplicate_node_name_rejected(self):
        _sim, grid, _dist = des_world()
        with pytest.raises(ResourceError):
            grid.add_node("seg-0", NodeSpec(cores=2), name="seg-0-n00")

    def test_distributor_dispatches_onto_joined_node(self):
        sim, grid, dist = des_world(slaves=1, cores=2)
        # saturate the only node, then queue one more
        jobs = [dist.submit(sim_job(i, cores_per_task=2)) for i in range(3)]
        assert len(dist.queue) == 2
        dist.add_node("seg-0", NodeSpec(cores=4))
        # the join itself dispatched: both waiters landed without a tick
        assert len(dist.queue) == 0
        sim.run()
        assert all(j.state is JobState.COMPLETED for j in jobs)
        assert dist.stats()["faults"]["nodes_joined"] == 1

    def test_graceful_remove_refuses_busy_node(self):
        sim, grid, dist = des_world(slaves=1, cores=2)
        dist.submit(sim_job(0, cores_per_task=2))
        dist.dispatch()
        with pytest.raises(ResourceError, match="drain it first or force"):
            dist.remove_node("seg-0-n00")
        sim.run()
        assert dist.remove_node("seg-0-n00") == []
        assert dist.stats()["faults"]["nodes_removed"] == 1

    def test_forced_remove_reroutes_as_node_lost(self):
        sim, grid, dist = des_world(slaves=2, cores=2, retry=RETRY)
        job = dist.submit(sim_job(0, cores_per_task=2, duration=10.0))
        dist.dispatch()
        victim = next(iter(job.placement))
        rerouted = dist.remove_node(victim, force=True)
        assert [j.id for j in rerouted] == [job.id]
        assert grid.get(victim) is None
        drain(sim, dist)
        assert job.state is JobState.COMPLETED
        assert [a.outcome for a in job.attempts] == ["node_lost", "completed"]


# ---------------------------------------------------------------------------
# heterogeneous node types
# ---------------------------------------------------------------------------
class TestNodeTypes:
    def test_spec_rejects_empty_type(self):
        with pytest.raises(ValueError):
            NodeSpec(cores=2, node_type="")

    def test_request_rejects_empty_type(self):
        from repro._errors import JobError

        with pytest.raises(JobError):
            JobRequest(name="x", owner="u", sim_duration=1.0, node_type="")

    def test_unknown_type_rejected_at_submit(self):
        _sim, _grid, dist = des_world()
        with pytest.raises(SchedulingError, match="node type"):
            dist.submit(sim_job(0, node_type="tpu"))

    def test_advertised_type_accepted_before_any_node_joins(self):
        _sim, grid, dist = des_world()
        grid.advertised_types.add("gpu")
        job = dist.submit(sim_job(0, node_type="gpu"))
        assert job.state is JobState.QUEUED  # waits for the fleet to provision

    def test_typed_job_lands_only_on_matching_node(self):
        sim, grid, dist = des_world(slaves=2, cores=2)
        gpu = dist.add_node("seg-0", NodeSpec(cores=2, node_type="gpu"))
        job = dist.submit(sim_job(0, cores_per_task=2, node_type="gpu"))
        dist.dispatch()
        assert list(job.placement) == [gpu.name]
        sim.run()
        assert job.state is JobState.COMPLETED

    def test_backfill_respects_type_of_blocked_head(self):
        from repro.cluster import BackfillScheduler

        sim, grid, dist = des_world(slaves=1, cores=2, scheduler=BackfillScheduler())
        grid.advertised_types.add("bigmem")  # the fleet can provision these
        typed = dist.submit(sim_job(0, cores_per_task=1, node_type="bigmem"))
        plain = dist.submit(sim_job(1, cores_per_task=1, est_runtime_s=5.0))
        dist.dispatch()
        assert plain.state is JobState.RUNNING  # backfill skipped the typed head
        assert typed.state is JobState.QUEUED
        dist.add_node("seg-0", NodeSpec(cores=2, memory_mb=8192, node_type="bigmem"))
        assert typed.state is JobState.RUNNING
        sim.run()
        assert typed.state is JobState.COMPLETED

    def test_advertised_type_requires_fleet_or_grid(self):
        _sim, grid, dist = des_world()
        # no advert, no node: reject
        with pytest.raises(SchedulingError):
            dist.submit(sim_job(0, node_type="bigmem"))

    def test_wire_roundtrip_carries_node_type(self):
        req = sim_job(0, node_type="gpu")
        grid = Grid(ClusterSpec.uhd_default())
        assert JobRequest.from_wire(req.to_wire()).node_type == "gpu"
        # the paper's machine advertises gpu via seg-d's nodes
        assert grid.knows_type("gpu") and not grid.knows_type("tpu")
        assert grid.snapshot()["node_types"]["gpu"] == 16


# ---------------------------------------------------------------------------
# policies and the hysteresis gate
# ---------------------------------------------------------------------------
def mk_sample(depth, fleet=0, pending=0, p95=None, now=0.0):
    return FleetSample(
        now=now, queue_depth=depth, running=0, cores_free=0,
        fleet_size=fleet, pending=pending, queue_wait_p95=p95,
    )


class TestPolicies:
    def test_depth_policy_thresholds(self):
        pol = TargetQueueDepthPolicy(out_depth_per_node=4, in_depth_per_node=1, step=2)
        assert pol.evaluate(mk_sample(5, fleet=0)) == 2      # 5 > 4*1
        assert pol.evaluate(mk_sample(5, fleet=2)) == 0      # inside band
        assert pol.evaluate(mk_sample(1, fleet=2)) == -2     # 1 <= 1*2
        assert pol.evaluate(mk_sample(0, fleet=0)) == 0      # nothing to shed

    def test_depth_policy_counts_pending_capacity(self):
        pol = TargetQueueDepthPolicy(out_depth_per_node=4, in_depth_per_node=1, step=2)
        # 10 > 4*1 would buy, but 2 warming nodes make effective=3: hold
        assert pol.evaluate(mk_sample(10, fleet=1, pending=2)) == 0
        # pending also blocks scale-in
        assert pol.evaluate(mk_sample(0, fleet=2, pending=1)) == 0

    def test_wait_policy_band(self):
        pol = QueueWaitP95Policy(out_wait_s=10.0, in_wait_s=1.0, step=1)
        assert pol.evaluate(mk_sample(3, fleet=1, p95=20.0)) == 1
        assert pol.evaluate(mk_sample(3, fleet=1, p95=5.0)) == 0    # in band
        assert pol.evaluate(mk_sample(0, fleet=1, p95=0.5)) == -1   # quiet
        assert pol.evaluate(mk_sample(0, fleet=1, p95=None)) == -1  # no samples
        assert pol.evaluate(mk_sample(0, fleet=0, p95=None)) == 0

    def test_deadband_enforced_at_construction(self):
        with pytest.raises(ValueError, match="deadband"):
            TargetQueueDepthPolicy(out_depth_per_node=1, in_depth_per_node=1)
        with pytest.raises(ValueError, match="deadband"):
            QueueWaitP95Policy(out_wait_s=1.0, in_wait_s=1.0)

    def test_gate_cooldowns(self):
        gate = HysteresisGate(out_cooldown_s=10.0, in_cooldown_s=30.0)
        assert gate.allow(+1, 0.0)
        assert not gate.allow(+1, 5.0)    # out cooldown
        assert gate.allow(+1, 10.0)
        assert not gate.allow(-1, 20.0)   # in needs 30s after *any* action
        assert gate.allow(-1, 40.0)
        assert gate.allow(+1, 41.0)       # growth after shrink is cheap
        assert not gate.allow(0, 100.0)   # zero delta is never an action


class TestNoFlappingProperties:
    """The ISSUE's property battery: monotone load never flaps."""

    @given(
        trace=st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=40),
        increasing=st.booleans(),
        out_thr=st.floats(min_value=0.6, max_value=16.0),
        band=st.floats(min_value=0.1, max_value=8.0),
        step=st.integers(min_value=1, max_value=4),
    )
    def test_monotone_trace_never_alternates_within_cooldown(
        self, trace, increasing, out_thr, band, step
    ):
        """A policy + gate fed a monotone queue-depth trace never executes
        opposite-direction actions within one scale-in cooldown window."""
        depths = sorted(trace) if increasing else sorted(trace, reverse=True)
        pol = TargetQueueDepthPolicy(
            out_depth_per_node=out_thr + band, in_depth_per_node=out_thr, step=step
        )
        in_cooldown = 30.0
        gate = HysteresisGate(out_cooldown_s=10.0, in_cooldown_s=in_cooldown)
        fleet = 0
        executed = []  # (t, delta)
        for i, depth in enumerate(depths):
            t = float(i * 5)
            delta = pol.evaluate(mk_sample(depth, fleet=fleet, now=t))
            if delta and gate.allow(delta, t):
                fleet = max(0, fleet + delta)
                executed.append((t, delta))
        for (t0, d0), (t1, d1) in zip(executed, executed[1:]):
            if (d0 > 0) != (d1 > 0) and d1 < 0:
                assert t1 - t0 >= in_cooldown, (executed, depths)
        # monotone *increasing* load must never shed capacity at all
        if increasing and depths[0] > 0:
            assert all(d > 0 for _, d in executed)

    @given(
        events=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0),  # dt between asks
                st.sampled_from([+1, -1]),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_gate_spacing_invariant(self, events):
        """Whatever the policy asks, executed actions keep their spacing:
        outs are >= out_cooldown apart, every in is >= in_cooldown after
        the previous executed action of either direction."""
        out_cd, in_cd = 7.0, 13.0
        gate = HysteresisGate(out_cooldown_s=out_cd, in_cooldown_s=in_cd)
        now, executed = 0.0, []
        for dt, delta in events:
            now += dt
            if gate.allow(delta, now):
                executed.append((now, delta))
        outs = [t for t, d in executed if d > 0]
        for a, b in zip(outs, outs[1:]):
            assert b - a >= out_cd
        for (t0, _d0), (t1, d1) in zip(executed, executed[1:]):
            if d1 < 0:
                assert t1 - t0 >= in_cd


# ---------------------------------------------------------------------------
# the scaling manager on the DES backend
# ---------------------------------------------------------------------------
def fleet_world(policy=None, **mgr_kwargs):
    sim, grid, dist = des_world(slaves=1, cores=2, retry=RETRY)
    pools = mgr_kwargs.pop(
        "pools",
        [NodePool("burst", NodeSpec(cores=2), segment="seg-0", max_nodes=4,
                  warmup_s=mgr_kwargs.pop("warmup_s", 0.0))],
    )
    mgr = ScalingManager(
        dist,
        pools,
        policy or TargetQueueDepthPolicy(out_depth_per_node=2, in_depth_per_node=0.4, step=2),
        scale_out_cooldown_s=mgr_kwargs.pop("scale_out_cooldown_s", 4.0),
        scale_in_cooldown_s=mgr_kwargs.pop("scale_in_cooldown_s", 8.0),
        idle_s=mgr_kwargs.pop("idle_s", 4.0),
        **mgr_kwargs,
    )
    return sim, grid, dist, mgr


class TestScalingManager:
    def test_backlog_scales_out_and_idle_scales_in(self):
        sim, grid, dist, mgr = fleet_world()
        jobs = [dist.submit(sim_job(i, cores_per_task=2, duration=3.0)) for i in range(10)]
        base_cores = 2

        def driver(sim):
            while True:
                yield sim.timeout(2.0)
                mgr.tick()
                if not mgr.managed_nodes() and all(j.terminal for j in jobs):
                    return

        sim.process(driver(sim))
        dist.dispatch()
        sim.run()
        assert all(j.state is JobState.COMPLETED for j in jobs)
        # elastic capacity fully given back, grid restored exactly
        assert mgr.managed_nodes() == {} and mgr.pending() == []
        assert grid.cores_free == base_cores
        kinds = [e["kind"] for e in mgr.decision_log()]
        assert "scale_out" in kinds and "join" in kinds and "scale_in" in kinds
        assert mgr.node_seconds["burst"] > 0

    def test_warmup_delays_capacity_and_records_lag(self):
        sim, grid, dist, mgr = fleet_world(warmup_s=3.0)
        for i in range(8):
            dist.submit(sim_job(i, cores_per_task=2, duration=50.0))
        dist.dispatch()
        mgr.tick(now=0.0)
        assert len(mgr.pending()) == 2 and mgr.managed_nodes() == {}
        mgr.tick(now=1.0)                       # not due yet
        assert mgr.managed_nodes() == {}
        mgr.tick(now=3.5)                       # warm-up elapsed
        assert len(mgr.managed_nodes()) == 2 and mgr.pending() == []
        lags = [e["lag_s"] for e in mgr.decision_log() if e["kind"] == "join"]
        assert lags == [3.5, 3.5]

    def test_cooldown_rejections_are_logged(self):
        sim, grid, dist, mgr = fleet_world(scale_out_cooldown_s=100.0)
        for i in range(12):
            dist.submit(sim_job(i, cores_per_task=2, duration=50.0))
        dist.dispatch()
        assert mgr.tick(now=0.0)["kind"] == "scale_out"
        mgr.tick(now=1.0)
        rejects = [e for e in mgr.decision_log() if e["kind"] == "rejected"]
        assert rejects and rejects[-1]["reason"] == "scale-out cooldown"

    def test_pool_ceiling_respected(self):
        sim, grid, dist, mgr = fleet_world()
        for i in range(50):
            dist.submit(sim_job(i, cores_per_task=2, duration=200.0))
        dist.dispatch()
        for t in range(0, 40, 2):
            mgr.tick(now=float(t))
        assert len(mgr.managed_nodes()) == 4  # max_nodes
        assert any(
            e["kind"] == "rejected" and e["reason"] == "all pools at max capacity"
            for e in mgr.decision_log()
        )

    def test_min_nodes_floor_joins_immediately_and_survives_scale_in(self):
        pools = [NodePool("floor", NodeSpec(cores=2), segment="seg-0",
                          min_nodes=2, max_nodes=4)]
        sim, grid, dist, mgr = fleet_world(pools=pools)
        assert len(mgr.managed_nodes()) == 2  # floor capacity, no warm-up
        for t in range(0, 120, 2):  # idle forever: shed down to the floor only
            mgr.tick(now=float(t))
        assert len(mgr.managed_nodes()) == 2

    def test_scale_in_skips_busy_nodes(self):
        sim, grid, dist, mgr = fleet_world(
            policy=TargetQueueDepthPolicy(
                out_depth_per_node=0.5, in_depth_per_node=0.1, step=2
            )
        )
        jobs = [dist.submit(sim_job(i, cores_per_task=2, duration=1000.0)) for i in range(5)]
        dist.dispatch()
        mgr.tick(now=0.0)
        mgr.tick(now=5.0)  # past the out cooldown: grow to the ceiling
        assert all(j.state is JobState.RUNNING for j in jobs)
        # long idle horizon, but every node is busy: nothing may leave
        for t in range(10, 60, 5):
            mgr.tick(now=float(t))
        assert len(mgr.managed_nodes()) == 4
        assert all(j.state is JobState.RUNNING for j in jobs)
        assert any(
            e["kind"] == "rejected" and e["reason"] == "no idle candidates past cooldown"
            for e in mgr.decision_log()
        )

    def test_snapshot_shape_and_telemetry(self):
        sim, grid, dist, mgr = fleet_world()
        snap = mgr.snapshot()
        assert snap["enabled"] and snap["policy"] == "target-queue-depth"
        assert snap["pools"][0]["name"] == "burst"
        assert snap["cooldowns"]["idle_s"] == 4.0
        reg = dist.telemetry.registry.snapshot()
        for name in (
            "repro_fleet_nodes",
            "repro_fleet_pending_scale",
            "repro_fleet_node_seconds_total",
            "repro_fleet_actions_total",
            "repro_fleet_scaling_lag_seconds",
        ):
            assert name in reg, name

    def test_unique_pool_names_required(self):
        sim, grid, dist = des_world()
        p = NodePool("a", NodeSpec(cores=2), segment="seg-0")
        with pytest.raises(ValueError, match="unique"):
            ScalingManager(dist, [p, p], TargetQueueDepthPolicy())

    def test_fleet_advertises_pool_types_for_submission(self):
        pools = [NodePool("gpus", NodeSpec(cores=2, node_type="gpu"),
                          segment="seg-0", max_nodes=2)]
        sim, grid, dist, mgr = fleet_world(
            pools=pools,
            policy=TargetQueueDepthPolicy(
                out_depth_per_node=0.5, in_depth_per_node=0.1, step=1
            ),
        )
        # no gpu node exists yet, but the pool can provision one
        job = dist.submit(sim_job(0, cores_per_task=2, node_type="gpu", duration=3.0))
        dist.dispatch()
        mgr.tick(now=0.0)

        def driver(sim):
            while True:
                yield sim.timeout(2.0)
                mgr.tick()
                if job.terminal:
                    return

        sim.process(driver(sim))
        sim.run()
        assert job.state is JobState.COMPLETED


# ---------------------------------------------------------------------------
# spot reclamation
# ---------------------------------------------------------------------------
class TestSpotReclamation:
    def _spot_world(self):
        pools = [NodePool("spot", NodeSpec(cores=2), segment="seg-0",
                          max_nodes=3, spot=True)]
        return fleet_world(pools=pools)

    def test_reclaim_reroutes_through_retry_budget(self):
        sim, grid, dist, mgr = self._spot_world()
        jobs = [dist.submit(sim_job(i, cores_per_task=2, duration=30.0)) for i in range(6)]
        dist.dispatch()
        mgr.tick(now=0.0)
        dist.dispatch()
        victims = mgr.spot_nodes()
        assert victims
        rerouted = mgr.reclaim(victims[0])
        assert rerouted
        for j in rerouted:
            assert any(a.outcome == "node_lost" for a in j.attempts)
        drain(sim, dist)
        assert all(j.state is JobState.COMPLETED for j in jobs)
        assert victims[0] not in mgr.managed_nodes()
        assert grid.get(victims[0]) is None
        assert any(e["kind"] == "reclaim" for e in mgr.decision_log())

    def test_reclaim_refuses_on_demand_and_unmanaged(self):
        sim, grid, dist, mgr = fleet_world()  # on-demand pool
        for i in range(8):
            dist.submit(sim_job(i, cores_per_task=2, duration=50.0))
        dist.dispatch()
        mgr.tick(now=0.0)
        (name, _pool) = next(iter(mgr.managed_nodes().items()))
        with pytest.raises(ResourceError, match="not preemptible"):
            mgr.reclaim(name)
        with pytest.raises(ResourceError, match="not fleet-managed"):
            mgr.reclaim("seg-0-n00")

    def test_reclaim_racing_checkpoint_loses_no_acked_jobs(self, tmp_path):
        """The ISSUE's crash race: a spot reclamation lands while the
        journal is mid-snapshot; the process dies at ``snapshot.mid-write``
        and reboots from the journal directory.  Every acknowledged job
        must survive with monotone attempt epochs."""
        sim = Simulator()
        grid = Grid(ClusterSpec.small(segments=1, slaves=2, cores=2))
        store = DurabilityStore(tmp_path / "wal", fsync="never")
        dist = JobDistributor(
            grid,
            SimulatedBackend(sim),
            now_fn=lambda: sim.now,
            journal=JobJournal(store, snapshot_every=4),
            retry=RETRY,
        )
        pools = [NodePool("spot", NodeSpec(cores=2), segment="seg-0",
                          max_nodes=3, spot=True)]
        mgr = ScalingManager(
            dist, pools,
            TargetQueueDepthPolicy(out_depth_per_node=1, in_depth_per_node=0.2, step=3),
            scale_out_cooldown_s=1.0, scale_in_cooldown_s=100.0, idle_s=100.0,
        )
        acked = [dist.submit(sim_job(i, cores_per_task=2, duration=40.0)).id for i in range(8)]
        dist.dispatch()
        mgr.tick(now=0.0)
        dist.dispatch()
        victims = mgr.spot_nodes()
        assert victims
        # arm the crash *inside* the snapshot the reclamation's journal
        # traffic will trigger (snapshot_every=4 records)
        crash = FaultInjector(dist).arm_crash("snapshot.mid-write", at=1)
        with pytest.raises(SimulatedCrash):
            for name in victims:
                mgr.reclaim(name)
        assert crash.fired == ["snapshot.mid-write"]

        # reboot: a fresh grid without any of the fleet's spot nodes
        sim2 = Simulator()
        grid2 = Grid(ClusterSpec.small(segments=1, slaves=2, cores=2))
        store2 = DurabilityStore(tmp_path / "wal", fsync="never")
        dist2, report = recover_distributor(
            store2, grid2, SimulatedBackend(sim2),
            now_fn=lambda: sim2.now, retry=RETRY,
        )
        for job_id in acked:
            job = dist2.jobs.get(job_id)
            assert job is not None, f"acked job {job_id} lost in spot/checkpoint race"
        drain(sim2, dist2)
        for job_id in acked:
            job = dist2.jobs[job_id]
            assert job.terminal
            completed = [a for a in job.attempts if a.outcome == "completed"]
            assert len(completed) <= 1, f"{job_id} double-completed"
            nos = [a.no for a in job.attempts]
            assert nos == sorted(nos)


# ---------------------------------------------------------------------------
# surfaces: bus RPCs and portal endpoints
# ---------------------------------------------------------------------------
class TestFleetSurfaces:
    def test_bus_fleet_rpcs(self):
        sim, grid, dist, mgr = fleet_world()
        for i in range(8):
            dist.submit(sim_job(i, cores_per_task=2, duration=50.0))
        dist.dispatch()
        mgr.tick(now=0.0)
        bus = MessageBus()
        service = ClusterBackendService(bus, dist)
        service.start()
        try:
            proxy = ClusterProxy(bus)
            snap = proxy.fleet_status()
            assert snap["enabled"] and snap["pools"][0]["name"] == "burst"
            log = proxy.fleet_log()
            assert any(e["kind"] == "scale_out" for e in log)
        finally:
            service.stop()

    def test_bus_fleet_rpcs_unmanaged(self):
        _sim, _grid, dist = des_world()
        bus = MessageBus()
        service = ClusterBackendService(bus, dist)
        service.start()
        try:
            proxy = ClusterProxy(bus)
            assert proxy.fleet_status() == {"enabled": False}
            assert proxy.fleet_log() == []
        finally:
            service.stop()

    def test_portal_api_fleet(self, portal_app, student_client):
        assert student_client.fleet() == {"enabled": False}
        pools = [NodePool("web", NodeSpec(cores=2), segment="seg-0", max_nodes=2)]
        ScalingManager(
            portal_app.proxy.distributor, pools, TargetQueueDepthPolicy()
        )
        snap = student_client.fleet()
        assert snap["enabled"] and snap["pools"][0]["name"] == "web"

    def test_portal_debug_fleet_is_privileged(self, portal_app, admin_client, student_client):
        with pytest.raises(PortalError, match="403"):
            student_client.fleet_decisions()
        assert admin_client.fleet_decisions() == {"enabled": False, "decisions": []}
        pools = [NodePool("web", NodeSpec(cores=2), segment="seg-0",
                          min_nodes=1, max_nodes=2)]
        mgr = ScalingManager(
            portal_app.proxy.distributor, pools, TargetQueueDepthPolicy()
        )
        mgr.tick()
        body = admin_client.fleet_decisions()
        assert body["enabled"] and isinstance(body["decisions"], list)

    def test_unauthenticated_fleet_rejected(self, portal_app):
        c = PortalClient(app=portal_app)
        with pytest.raises(PortalError, match="401"):
            c.fleet()


class TestConstructorEdgeCases:
    """Pin the constructor contracts the SPC-* validator mirrors.

    The spec validator (SPC-C001/C002/C006) reports these statically;
    the constructors are the runtime backstop and must stay strict so
    a hand-built fleet cannot sneak past the same invariants.
    """

    def test_depth_policy_zero_deadband_rejected(self):
        with pytest.raises(ValueError, match="deadband"):
            TargetQueueDepthPolicy(out_depth_per_node=2.0, in_depth_per_node=2.0)
        with pytest.raises(ValueError, match="deadband"):
            TargetQueueDepthPolicy(out_depth_per_node=1.0, in_depth_per_node=3.0)

    def test_wait_policy_zero_deadband_rejected(self):
        with pytest.raises(ValueError, match="deadband"):
            QueueWaitP95Policy(out_wait_s=5.0, in_wait_s=5.0)
        with pytest.raises(ValueError, match="deadband"):
            QueueWaitP95Policy(out_wait_s=1.0, in_wait_s=30.0)

    def test_pool_min_above_max_rejected(self):
        with pytest.raises(ValueError, match="max_nodes"):
            NodePool("p", NodeSpec(), segment="seg-0", min_nodes=5, max_nodes=2)

    def test_pool_min_equal_max_is_a_fixed_pool(self):
        pool = NodePool("p", NodeSpec(), segment="seg-0", min_nodes=3, max_nodes=3)
        assert (pool.min_nodes, pool.max_nodes) == (3, 3)

    def test_pool_negative_bounds_rejected(self):
        with pytest.raises(ValueError, match="min_nodes"):
            NodePool("p", NodeSpec(), segment="seg-0", min_nodes=-1)
        with pytest.raises(ValueError, match="warmup_s"):
            NodePool("p", NodeSpec(), segment="seg-0", warmup_s=-0.1)

    def test_warmup_longer_than_scale_in_cooldown_constructs(self):
        # Flap-prone but legal at runtime: the gate and pool are
        # independent knobs.  The *static* validator flags the pairing
        # as SPC-C002 so the operator hears about it before deploying.
        from repro.spec import validate

        gate = HysteresisGate(out_cooldown_s=15.0, in_cooldown_s=30.0)
        pool = NodePool("p", NodeSpec(), segment="seg-0", warmup_s=120.0)
        assert pool.warmup_s > gate.in_cooldown_s
        doc = {
            "cluster": {
                "node_types": {"standard": {"cores": 4}},
                "segments": [
                    {"name": "seg-0", "slaves": 2, "slave_type": "standard"}
                ],
            },
            "fleet": {
                "pools": [{"name": "p", "segment": "seg-0",
                           "node_type": "standard", "warmup_s": 120.0}],
                "scaling": {"policy": "target-queue-depth",
                            "scale_in_cooldown_s": 30.0},
            },
        }
        assert validate(doc).rule_ids() == ["SPC-C002"]
