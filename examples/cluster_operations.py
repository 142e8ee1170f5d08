#!/usr/bin/env python3
"""Operating the cluster: scheduling policies, faults, utilisation.

The systems side of the portal, on virtual time: a day's worth of mixed
jobs flows through the 4×16 grid under three scheduling policies, nodes
fail and recover mid-run, and the monitor's accounting summarises it.

Run:  python examples/cluster_operations.py
"""

import numpy as np

from repro.cluster import (
    BackfillScheduler,
    ClusterSpec,
    FaultInjector,
    FIFOScheduler,
    Grid,
    JobDistributor,
    JobKind,
    JobRequest,
    PriorityScheduler,
    RetryPolicy,
    SimulatedBackend,
)
from repro.desim import Simulator


def make_requests(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        parallel = rng.random() < 0.25
        duration = float(rng.lognormal(1.2, 0.7))
        out.append(
            JobRequest(
                name=f"job{i:03d}",
                kind=JobKind.PARALLEL if parallel else JobKind.SEQUENTIAL,
                n_tasks=int(rng.integers(2, 13)) if parallel else 1,
                sim_duration=duration,
                est_runtime_s=duration * 1.2,
                priority=int(rng.integers(0, 3)),
            )
        )
    return out


def policy_ablation() -> None:
    print("== Scheduling-policy ablation (300 jobs, 4x16 grid, virtual time) ==")
    print(f"   {'policy':<10} {'makespan':>10} {'mean wait':>10} {'p95 wait':>10}")
    for scheduler in (FIFOScheduler(), PriorityScheduler(), BackfillScheduler()):
        sim = Simulator()
        dist = JobDistributor(Grid(ClusterSpec.uhd_default()), SimulatedBackend(sim),
                              scheduler, now_fn=lambda: sim.now)
        for request in make_requests(300):
            dist.submit(request)
        sim.run()
        s = dist.monitor.summary()
        print(f"   {scheduler.name:<10} {sim.now:>9.1f}s {s['mean_wait_s']:>9.2f}s "
              f"{s['p95_wait_s']:>9.2f}s")


def fault_story() -> None:
    print("\n== Node failures mid-run ==")
    sim = Simulator()
    grid = Grid(ClusterSpec.small(segments=2, slaves=4, cores=2))
    # Jobs on a dead node are requeued onto surviving nodes, not failed.
    retry = RetryPolicy(max_attempts=3, retry_on=("node_lost",))
    dist = JobDistributor(grid, SimulatedBackend(sim), now_fn=lambda: sim.now, retry=retry)
    injector = FaultInjector(dist, seed=3)

    jobs = [dist.submit(r) for r in make_requests(30, seed=9)]
    sim.run(until=2.0)

    victim, affected = injector.kill_random_node()
    print(f"   t={sim.now:.1f}s: node {victim} died; {len(affected)} job(s) were rerouted")
    sim.run(until=6.0)
    injector.revive_node(victim)
    print(f"   t={sim.now:.1f}s: node {victim} recovered")
    sim.run()

    summary = dist.monitor.summary()
    print(f"   final states: {summary['by_state']}")
    done = summary["by_state"].get("completed", 0)
    assert done == len(jobs), "every job eventually completed (some via rerouting)"


def utilisation_story() -> None:
    print("\n== Utilisation under a bursty arrival process ==")
    sim = Simulator()
    grid = Grid(ClusterSpec.uhd_default())
    dist = JobDistributor(grid, SimulatedBackend(sim), BackfillScheduler(), now_fn=lambda: sim.now)

    def burst(sim, dist, at, n, seed):
        yield sim.timeout(at)
        for request in make_requests(n, seed=seed):
            dist.submit(request)

    for k, at in enumerate((0.0, 20.0, 40.0)):
        sim.process(burst(sim, dist, at, 80, seed=k))
    sim.run()
    samples = dist.monitor.samples
    peak = max(s.load for s in samples)
    print(f"   {len(samples)} load samples; peak load {peak:.0%}, "
          f"mean {dist.monitor.mean_load():.0%}, makespan {sim.now:.1f}s")
    top = dist.monitor.summary()
    print(f"   accounting: {top['jobs_finished']} jobs, {top['core_seconds']:.0f} core-seconds")


def main() -> None:
    policy_ablation()
    fault_story()
    utilisation_story()


if __name__ == "__main__":
    main()
