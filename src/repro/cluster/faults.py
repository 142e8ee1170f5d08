"""Node failure/recovery injection.

Failure-injection tests use this to verify the distributor's behaviour
when nodes vanish mid-run.  Since the fault-tolerance layer landed, the
injector is a thin veneer over the distributor's own first-class API —
:meth:`JobDistributor.fail_node` / :meth:`JobDistributor.recover_node` —
rather than poking at handles and placements directly: killing a node
retires its attempts, reroutes jobs with ``node_lost`` retry budget to
surviving nodes and seals the rest FAILED, all under the distributor's
lock, with lineage recorded and ``stats()["faults"]`` counting the
damage.
"""

from __future__ import annotations

import numpy as np

from repro._errors import ResourceError
from repro.cluster.distributor import JobDistributor
from repro.cluster.node import NodeState

__all__ = ["FaultInjector"]


class FaultInjector:
    """Kill and revive nodes of a distributor's grid."""

    def __init__(self, distributor: JobDistributor, seed: int = 0) -> None:
        self.distributor = distributor
        self._rng = np.random.default_rng(seed)
        self.killed: list[str] = []
        self.victim_jobs: list[str] = []

    def kill_node(self, node_name: str) -> list[str]:
        """Take one node down via the distributor's fault path.

        Jobs running there either reroute (their retry policy covers
        ``node_lost``) or seal FAILED.  Returns ids of affected jobs.
        """
        dist = self.distributor
        node = dist.grid.node(node_name)
        if node.state is NodeState.DOWN:
            # The distributor's fail_node is idempotent (duplicate fault
            # deliveries no-op); the injector keeps the strict test-facing
            # contract — killing a dead node is a scripting mistake.
            raise ResourceError(f"node {node_name!r} is already down")
        victims = list(node.running_jobs)
        dist.fail_node(node_name)
        self.killed.append(node_name)
        self.victim_jobs.extend(victims)
        return victims

    def kill_random_node(self) -> tuple[str, list[str]]:
        """Kill a uniformly-chosen up node. Returns (name, affected jobs)."""
        up = self.distributor.grid.up_compute_nodes()
        if not up:
            raise ResourceError("no up nodes left to kill")
        node = up[int(self._rng.integers(0, len(up)))]
        return node.name, self.kill_node(node.name)

    def revive_node(self, node_name: str) -> None:
        """Bring a dead node back (empty) and re-run dispatch."""
        node = self.distributor.grid.node(node_name)
        if node.state is not NodeState.DOWN:
            raise ResourceError(f"node {node_name} is not down")
        self.distributor.recover_node(node_name)
        if node_name in self.killed:
            self.killed.remove(node_name)

    def revive_all(self) -> None:
        """Revive every node this injector killed."""
        for name in list(self.killed):
            self.revive_node(name)

    # -- crash injection ------------------------------------------------------
    def crash_points(self) -> tuple[str, ...]:
        """The distributor's instrumented crash points (durability on)."""
        from repro.durability.crashpoints import CRASH_POINTS

        return CRASH_POINTS

    def arm_crash(self, point: str, at: int = 1):
        """Arm a deterministic process crash at a journal crash point.

        The ``at``-th passage through ``point`` raises
        :class:`~repro.durability.crashpoints.SimulatedCrash` — a
        ``BaseException``, so the distributor's own error guards cannot
        absorb it and it unwinds like ``kill -9`` would.  Requires the
        distributor to run with a journal (there is nothing to crash
        into otherwise).  Returns the journal's
        :class:`~repro.durability.crashpoints.CrashPoints` registry so
        tests can inspect ``fired`` or disarm.
        """
        dist = self.distributor
        if dist.journal is None:
            raise ResourceError(
                "arm_crash needs a journaled distributor (journal=JobJournal(...))"
            )
        crash = dist.journal.store.crash
        crash.arm(point, at=at)
        return crash

    # -- planned maintenance ------------------------------------------------
    def drain_node(self, node_name: str) -> tuple[str, ...]:
        """Put a node into DRAINING: running jobs finish, nothing new lands.

        Returns the ids of the jobs still running there.  Once they
        complete, call :meth:`maintenance_done` (or ``kill_node``) to
        take it down, and ``revive_node`` after the maintenance window.
        """
        node = self.distributor.grid.node(node_name)
        node.drain()
        return node.running_jobs

    def maintenance_done(self, node_name: str) -> None:
        """Return a drained (now idle) node to service."""
        node = self.distributor.grid.node(node_name)
        if node.running_jobs:
            raise ResourceError(
                f"node {node_name} still runs {list(node.running_jobs)}; wait for drain"
            )
        self.distributor.recover_node(node_name)
