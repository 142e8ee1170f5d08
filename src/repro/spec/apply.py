"""Apply a reconfigure plan to a live cluster, rolling.

:class:`Reconfigurer` executes :func:`repro.spec.plan_reconfigure`
output against a live :class:`JobDistributor`:

* **in-place** actions happen synchronously inside :meth:`apply` —
  scheduler/retry/health/scaling knob swaps, new segments, new slaves,
  new pools.  The portal stanzas (admission, toolchains) are only
  remembered here, for :meth:`describe`: each portal app applies them
  to itself (``LocalCluster.on_spec_applied``).
* **rolling-drain** actions mark the affected nodes ``DRAINING``
  (they finish running attempts, accept nothing new) and enqueue a
  drain task; :meth:`tick` completes each task once its node is idle —
  graceful ``remove_node`` only, never forced, so **zero acked jobs
  are lost**.  Retype drains additionally join a replacement node the
  moment the old one leaves.
* **destroy-recreate** actions (segment removal, master replacement)
  are refused outright while any job is live — a plan that would
  strand acked work raises :class:`SpecError` before touching
  anything.  On an idle cluster they execute synchronously.

Apply is **level-triggered**: it reads desired state, not an edit
script, so re-applying the same document is idempotent and a second
apply after jobs finished completes what the first one could only
start.  Drive :meth:`tick` from the same loop that pumps the DES clock
(or any periodic caller on wall clock); ``pending()`` reports what is
still draining.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro._errors import ResourceError, SpecError
from repro.cluster.spec import NodeSpec
from repro.spec.build import (
    build_cluster_spec,
    build_health_policy,
    build_pools,
    build_retry,
    build_scaling_policy,
    build_scheduler,
    describe,
    ensure_valid,
)
from repro.spec.diff import ReconfigurePlan, plan_reconfigure

__all__ = ["DrainTask", "Reconfigurer"]


@dataclass
class DrainTask:
    """One node on its way out, with an optional one-for-one replacement."""

    node: str
    reason: str
    replacement: Optional[tuple[str, NodeSpec]] = None  # (segment, spec)

    def as_dict(self) -> dict:
        return {
            "node": self.node,
            "reason": self.reason,
            "replacement": (
                {"segment": self.replacement[0],
                 "node_type": self.replacement[1].node_type}
                if self.replacement else None
            ),
        }


class Reconfigurer:
    """Level-triggered spec application for one distributor."""

    def __init__(self, dist) -> None:
        self.dist = dist
        self._pending: list[DrainTask] = []
        self._lock = threading.RLock()
        #: the portal stanzas (admission, toolchains) of the last applied
        #: document: the portal applies them, the cluster only remembers
        self._portal: dict = {}

    # -- read side -----------------------------------------------------------
    def describe(self) -> dict:
        """The live configuration as a spec document."""
        return {**describe(self.dist), **self._portal}

    def plan(self, desired: dict) -> ReconfigurePlan:
        """Static plan from live state to ``desired`` (validates both)."""
        ensure_valid(desired, source="desired")
        return plan_reconfigure(self.describe(), desired, check=False)

    def pending(self) -> list[DrainTask]:
        with self._lock:
            return list(self._pending)

    @property
    def done(self) -> bool:
        return not self._pending

    # -- apply ---------------------------------------------------------------
    def apply(self, desired: dict) -> dict:
        """Plan and execute; returns the plan plus drain status.

        Raises :class:`SpecError` when the plan contains
        destroy-recreate actions while jobs are live (queued, held or
        running) — executing those would strand acked work.
        """
        with self._lock:
            plan = self.plan(desired)
            if plan.destructive and self._live_jobs():
                raise SpecError(
                    "refusing reconfigure: plan contains destroy-recreate "
                    f"action(s) ({', '.join(a.path for a in plan.destructive)}) "
                    f"while {self._live_jobs()} job(s) are live; drain the "
                    "cluster first or drop the destructive change"
                )
            ops = {a.op for a in plan.actions}
            self._apply_knobs(desired, ops)
            self._apply_cluster(desired, ops)
            self._apply_fleet(desired, ops)
            self._portal = {
                k: desired[k] for k in ("admission", "toolchains") if k in desired
            }
            self.tick()
            return {
                "plan": plan.as_dict(),
                "complete": self.done,
                "pending": [t.as_dict() for t in self._pending],
            }

    def tick(self) -> int:
        """Complete drains whose node went idle; returns drains left."""
        with self._lock:
            still: list[DrainTask] = []
            for task in self._pending:
                node = self.dist.grid.get(task.node)
                if node is None:
                    pass  # already gone (operator action, spot reclaim)
                elif node.running_jobs:
                    still.append(task)
                    continue
                else:
                    try:
                        self.dist.remove_node(task.node)
                    except ResourceError:
                        still.append(task)  # a job landed in the gap
                        continue
                if self.dist.fleet is not None:
                    self.dist.fleet.forget(task.node)
                if task.replacement is not None:
                    segment, spec = task.replacement
                    self.dist.add_node(segment, spec)
            self._pending = still
            return len(still)

    # -- internals -----------------------------------------------------------
    def _live_jobs(self) -> int:
        dist = self.dist
        with dist._lock:
            return len(dist.queue) + len(dist._held) + len(dist._running)

    def _drain(self, node_name: str, reason: str,
               replacement: Optional[tuple[str, NodeSpec]] = None) -> None:
        node = self.dist.grid.get(node_name)
        if node is None:
            return
        node.drain()
        self._pending.append(DrainTask(node_name, reason, replacement))

    def _apply_knobs(self, desired: dict, ops: set) -> None:
        dist = self.dist
        if "set_scheduler" in ops:
            dist.scheduler = build_scheduler(desired)
        if "set_retry" in ops:
            dist.retry = build_retry(desired)
        if "set_health" in ops:
            track, policy = build_health_policy(desired)
            if dist.health is not None and track and policy is not None:
                dist.health.policy = policy

    def _apply_cluster(self, desired: dict, ops: set) -> None:
        dist = self.dist
        cur = dist.grid.spec
        des = build_cluster_spec(desired, check=False)
        cur_segs = {s.name: s for s in cur.segments}
        des_segs = {s.name: s for s in des.segments}

        if "replace_grid_master" in ops:
            dist.replace_master(des.master_server_spec)

        for name, seg_spec in des_segs.items():
            if name not in cur_segs:
                dist.add_segment(seg_spec)
                continue
            old = cur_segs[name]
            seg = dist.grid.segment(name)
            if old.master_spec != seg_spec.master_spec:
                dist.replace_master(seg_spec.master_spec, segment=name)
            if old.slave_spec != seg_spec.slave_spec:
                # Retype: every slave of the old shape drains and is
                # replaced one-for-one as it goes.
                for node in list(seg.slaves):
                    if node.spec == old.slave_spec:
                        self._drain(node.name, f"retype {name}",
                                    replacement=(name, seg_spec.slave_spec))
            if seg_spec.n_slaves > old.n_slaves:
                for _ in range(seg_spec.n_slaves - old.n_slaves):
                    dist.add_node(name, seg_spec.slave_spec)
            elif seg_spec.n_slaves < old.n_slaves:
                managed = set(dist.fleet.managed_nodes()) if dist.fleet else set()
                static = [n for n in seg.slaves if n.name not in managed]
                for node in reversed(static[-(old.n_slaves - seg_spec.n_slaves):]):
                    self._drain(node.name, f"shrink {name}")

        for name in list(cur_segs):
            if name not in des_segs:
                dist.remove_segment(name)

        # Record desired static inventory so describe()/replan converge.
        dist.grid.spec = des

    def _apply_fleet(self, desired: dict, ops: set) -> None:
        dist = self.dist
        fleet_ops = {"add_pool", "update_pool", "replace_pool", "shrink_pool",
                     "remove_pool", "set_scaling"}
        if not (ops & fleet_ops):
            return
        stanza = desired.get("fleet")
        if stanza is None:
            if dist.fleet is not None:
                manager = dist.fleet
                manager.stop()
                for name in list(manager.managed_nodes()):
                    self._drain(name, "fleet disabled")
                dist.fleet = None
            return
        pools = build_pools(desired)
        policy = build_scaling_policy(desired)
        scaling = stanza.get("scaling") or {}
        if dist.fleet is None:
            from repro.spec.build import build_fleet

            build_fleet(desired, dist, check=False)
            return
        manager = dist.fleet
        pool_by_name = {p.name: p for p in pools}
        # Nodes living in pools that changed shape must be re-provisioned:
        # drain them; the policy re-buys capacity in the new shape.
        for node_name, pool_name in manager.managed_nodes().items():
            old_pool = manager._pool_by_name.get(pool_name)
            new_pool = pool_by_name.get(pool_name)
            if old_pool is None or new_pool is None:
                continue  # orphan handling below
            if (old_pool.segment != new_pool.segment
                    or old_pool.spec != new_pool.spec):
                self._drain(node_name, f"replace pool {pool_name}")
        orphans = manager.reconfigure(
            pools=pools,
            policy=policy,
            scale_out_cooldown_s=float(scaling.get("scale_out_cooldown_s", 15.0)),
            scale_in_cooldown_s=float(scaling.get("scale_in_cooldown_s", 60.0)),
            idle_s=float(scaling.get("idle_s", 30.0)),
        )
        for name in orphans:
            self._drain(name, "pool removed")
        # Shrunk bounds: drain the newest joined nodes above each new max.
        sizes = manager.pool_sizes()
        excess = {
            name: sizes.get(name, 0) - pool.max_nodes
            for name, pool in pool_by_name.items()
            if sizes.get(name, 0) > pool.max_nodes
        }
        draining = {t.node for t in self._pending}
        for node_name, pool_name in reversed(list(manager.managed_nodes().items())):
            over = excess.get(pool_name, 0)
            if over > 0 and node_name not in draining:
                self._drain(node_name, f"shrink pool {pool_name}")
                excess[pool_name] = over - 1
