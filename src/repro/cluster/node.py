"""A cluster node with core/memory accounting."""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional

from repro._errors import ResourceError
from repro.cluster.spec import NodeSpec

__all__ = ["NodeState", "Node"]


class NodeState(enum.Enum):
    """Availability of a node."""

    UP = "up"
    DOWN = "down"
    DRAINING = "draining"  # finishes running work, accepts nothing new
    SUSPECT = "suspect"    # health-flagged (flapping): drained until probation ends


class Node:
    """One machine: tracks which jobs hold how many cores / how much memory.

    All mutation goes through :meth:`allocate` / :meth:`free`, which keep
    the invariant ``0 <= used <= capacity`` and reject double frees —
    property-based tests hammer exactly this.

    Used totals are maintained incrementally (``cores_free`` is O(1)),
    and every mutation notifies an optional observer — the owning
    :class:`~repro.cluster.segment.Segment` — so segment/grid free-capacity
    indexes stay current without rescanning the inventory.
    """

    def __init__(self, name: str, spec: NodeSpec, segment: str = "") -> None:
        self.name = name
        self.spec = spec
        self.segment = segment
        self.state = NodeState.UP
        self._job_cores: Dict[str, int] = {}
        self._job_memory: Dict[str, int] = {}
        self._cores_used = 0
        self._memory_used = 0
        #: capacity-change callback, set by the owning segment (if any)
        self._observer: Optional[Callable[["Node"], None]] = None

    def _notify(self) -> None:
        if self._observer is not None:
            self._observer(self)

    # -- capacity ----------------------------------------------------------
    @property
    def cores_used(self) -> int:
        return self._cores_used

    @property
    def cores_free(self) -> int:
        return self.spec.cores - self._cores_used if self.state is NodeState.UP else 0

    @property
    def memory_free_mb(self) -> int:
        return self.spec.memory_mb - self._memory_used if self.state is NodeState.UP else 0

    @property
    def load(self) -> float:
        """Fraction of cores in use (0..1)."""
        return self._cores_used / self.spec.cores

    @property
    def running_jobs(self) -> tuple[str, ...]:
        return tuple(self._job_cores)

    # -- allocation --------------------------------------------------------
    def can_fit(
        self,
        cores: int,
        memory_mb: int = 0,
        need_gpu: bool = False,
        node_type: Optional[str] = None,
    ) -> bool:
        """Would an allocation of this shape succeed right now?

        ``node_type`` (when given) must match the node's capability tag
        exactly — a job pinned to ``"gpu"`` never lands on a ``"standard"``
        node and vice versa.
        """
        if self.state is not NodeState.UP:
            return False
        if need_gpu and not self.spec.has_gpu:
            return False
        if node_type is not None and self.spec.node_type != node_type:
            return False
        return cores <= self.cores_free and memory_mb <= self.memory_free_mb

    def allocate(self, job_id: str, cores: int, memory_mb: int = 0) -> None:
        """Reserve resources for ``job_id``. Raises on oversubscription."""
        if cores < 1:
            raise ResourceError(f"allocation must take >= 1 core, got {cores}")
        if self.state is not NodeState.UP:
            raise ResourceError(f"node {self.name} is {self.state.value}, cannot allocate")
        if job_id in self._job_cores:
            raise ResourceError(f"job {job_id} already holds cores on node {self.name}")
        if cores > self.cores_free:
            raise ResourceError(
                f"node {self.name}: requested {cores} cores, only {self.cores_free} free"
            )
        if memory_mb > self.memory_free_mb:
            raise ResourceError(
                f"node {self.name}: requested {memory_mb} MB, only {self.memory_free_mb} free"
            )
        self._job_cores[job_id] = cores
        self._cores_used += cores
        if memory_mb:
            self._job_memory[job_id] = memory_mb
            self._memory_used += memory_mb
        self._notify()

    def free(self, job_id: str) -> None:
        """Release everything ``job_id`` holds here. Raises on double free."""
        if job_id not in self._job_cores:
            raise ResourceError(f"job {job_id} holds nothing on node {self.name}")
        self._cores_used -= self._job_cores.pop(job_id)
        self._memory_used -= self._job_memory.pop(job_id, 0)
        self._notify()

    def holds(self, job_id: str) -> bool:
        """Whether ``job_id`` currently has an allocation here."""
        return job_id in self._job_cores

    # -- state transitions ------------------------------------------------------
    def mark_down(self) -> tuple[str, ...]:
        """Take the node down; returns ids of jobs that were running here."""
        victims = self.running_jobs
        self.state = NodeState.DOWN
        self._job_cores.clear()
        self._job_memory.clear()
        self._cores_used = 0
        self._memory_used = 0
        self._notify()
        return victims

    def mark_up(self) -> None:
        """Bring the node back into service (empty)."""
        self.state = NodeState.UP
        self._notify()

    def drain(self) -> None:
        """Stop accepting new work; running jobs continue."""
        if self.state is NodeState.UP:
            self.state = NodeState.DRAINING
            self._notify()

    def mark_suspect(self) -> None:
        """Health-flag the node: like draining, but owned by the health
        monitor — running jobs finish, placement skips it, and it rejoins
        automatically once its probation window passes without failures."""
        if self.state in (NodeState.UP, NodeState.DRAINING):
            self.state = NodeState.SUSPECT
            self._notify()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Node {self.name} {self.state.value} "
            f"{self.cores_used}/{self.spec.cores} cores>"
        )
