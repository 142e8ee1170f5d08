"""The simulated computing cluster.

Models the machine described in Section II of the paper: four segments,
each with a master node and sixteen slave nodes, joined by a grid master
server — plus the job machinery the portal drives:

* :mod:`~repro.cluster.spec` / :mod:`~repro.cluster.node` /
  :mod:`~repro.cluster.segment` / :mod:`~repro.cluster.grid` — hardware
  inventory and per-node core/memory accounting;
* :mod:`~repro.cluster.job` — sequential / parallel / interactive job
  model with a validated lifecycle;
* :mod:`~repro.cluster.scheduler` — FIFO, priority and backfill policies;
* :mod:`~repro.cluster.distributor` — the paper's "job distributor":
  allocates resources, dispatches to a backend, frees on completion;
* :mod:`~repro.cluster.backends` — real subprocesses, Python callables
  (including minimpi programs) or DES-simulated executions;
* :mod:`~repro.cluster.streams` — stdout/stderr capture and interactive
  stdin, which the portal's monitor page surfaces;
* :mod:`~repro.cluster.monitor` / :mod:`~repro.cluster.faults` —
  utilisation accounting and failure injection.
"""

from repro.cluster.spec import ClusterSpec, NodeSpec, SegmentSpec
from repro.cluster.node import Node, NodeState
from repro.cluster.segment import Segment
from repro.cluster.grid import Grid
from repro.cluster.job import Job, JobAttempt, JobKind, JobRequest, JobSnapshot, JobState, RetryPolicy
from repro.cluster.queue import JobQueue
from repro.cluster.scheduler import (
    Allocation,
    BackfillScheduler,
    CapacityView,
    FIFOScheduler,
    PriorityScheduler,
    RunningEstimates,
    Scheduler,
)
from repro.cluster.backends import (
    CallableBackend,
    ExecutionBackend,
    SimulatedBackend,
    SubprocessBackend,
)
from repro.cluster.streams import InteractiveChannel, StreamCapture
from repro.cluster.distributor import JobDistributor
from repro.cluster.monitor import (
    AccountingRecord,
    ClusterMonitor,
    HealthMonitor,
    HealthPolicy,
)
from repro.cluster.faults import FaultInjector
from repro.cluster.workloads import WorkloadSpec, generate_requests, run_workload

__all__ = [
    "NodeSpec", "SegmentSpec", "ClusterSpec",
    "Node", "NodeState", "Segment", "Grid",
    "Job", "JobKind", "JobRequest", "JobState",
    "JobAttempt", "JobSnapshot", "RetryPolicy",
    "JobQueue",
    "Scheduler", "FIFOScheduler", "PriorityScheduler", "BackfillScheduler", "Allocation",
    "CapacityView", "RunningEstimates",
    "ExecutionBackend", "SubprocessBackend", "CallableBackend", "SimulatedBackend",
    "StreamCapture", "InteractiveChannel",
    "JobDistributor",
    "ClusterMonitor", "AccountingRecord", "HealthMonitor", "HealthPolicy",
    "FaultInjector",
    "WorkloadSpec", "generate_requests", "run_workload",
]
