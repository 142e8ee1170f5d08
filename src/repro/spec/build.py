"""Materializers: turn a validated spec document into live subsystems.

Each ``build_*`` function maps one stanza onto the constructor it
replaces — ``cluster`` onto :class:`~repro.cluster.spec.ClusterSpec` /
:class:`~repro.cluster.grid.Grid`, ``retry`` onto
:class:`~repro.cluster.job.RetryPolicy`, ``fleet`` onto
:class:`~repro.fleet.NodePool` + :class:`~repro.fleet.ScalingManager`,
and so on.  Top-level entry points run :func:`repro.spec.validate`
first and raise :class:`~repro._errors.SpecError` carrying the full
finding list when the document has errors (warnings never block);
pass ``check=False`` when the document was already validated.

:func:`describe` is the inverse: it serialises a live distributor (and
optional admission controller) back into a spec document, which is what
``GET /api/cluster/spec`` serves and what the diff planner treats as
*current* state.
"""

from __future__ import annotations

from typing import Optional

from repro._errors import SpecError
from repro.cluster.grid import Grid
from repro.cluster.job import RetryPolicy
from repro.cluster.monitor import HealthPolicy
from repro.cluster.scheduler import (
    BackfillScheduler,
    FIFOScheduler,
    PriorityScheduler,
    Scheduler,
)
from repro.cluster.spec import ClusterSpec, NodeSpec, SegmentSpec
from repro.fleet.manager import NodePool, ScalingManager
from repro.fleet.policy import (
    QueueWaitP95Policy,
    ScalingPolicy,
    TargetQueueDepthPolicy,
)
from repro.spec.model import ValidationReport
from repro.spec.validate import validate

__all__ = [
    "ensure_valid",
    "build_node_spec",
    "build_cluster_spec",
    "build_cluster",
    "build_scheduler",
    "build_retry",
    "build_health_policy",
    "build_pools",
    "build_scaling_policy",
    "build_fleet",
    "build_admission",
    "build_toolchains",
    "build_distributor",
    "describe",
]

#: Field defaults used when a stanza omits a master description.
_DEFAULT_SEGMENT_MASTER = NodeSpec(cores=4, memory_mb=8192)
_DEFAULT_GRID_MASTER = NodeSpec(cores=8, memory_mb=16384)


def ensure_valid(doc: dict, source: str = "<spec>") -> ValidationReport:
    """Validate ``doc``; raise :class:`SpecError` when it has errors."""
    report = validate(doc, source=source)
    if not report.ok:
        raise SpecError(
            f"invalid cluster spec ({len(report.errors)} error(s)): "
            + "; ".join(str(f) for f in report.errors),
            findings=report.findings,
        )
    return report


def build_node_spec(fields: dict) -> NodeSpec:
    """One ``node_types`` entry (or master override) → :class:`NodeSpec`."""
    return NodeSpec(
        cores=int(fields.get("cores", 2)),
        memory_mb=int(fields.get("memory_mb", 2048)),
        has_gpu=bool(fields.get("has_gpu", False)),
        cpu_ghz=float(fields.get("cpu_ghz", 2.4)),
        node_type=str(fields.get("node_type", "standard")),
    )


def build_cluster_spec(doc: dict, check: bool = True) -> ClusterSpec:
    """The ``cluster`` stanza → a :class:`ClusterSpec` inventory."""
    if check:
        ensure_valid(doc)
    cluster = doc["cluster"]
    types = {
        name: build_node_spec(fields)
        for name, fields in cluster.get("node_types", {}).items()
    }
    segments = []
    for seg in cluster.get("segments", []):
        master = seg.get("master_type")
        segments.append(
            SegmentSpec(
                name=seg["name"],
                n_slaves=int(seg.get("slaves", 16)),
                slave_spec=types[seg["slave_type"]],
                master_spec=types[master] if master else _DEFAULT_SEGMENT_MASTER,
            )
        )
    master_server = cluster.get("master_server")
    return ClusterSpec(
        segments=tuple(segments),
        master_server_spec=(
            build_node_spec(master_server) if master_server else _DEFAULT_GRID_MASTER
        ),
    )


def build_cluster(doc: dict, check: bool = True) -> Grid:
    """The ``cluster`` stanza → a live :class:`Grid`."""
    return Grid(build_cluster_spec(doc, check=check))


def build_scheduler(doc: dict) -> Scheduler:
    """The ``scheduler`` stanza → a scheduler instance (default FIFO)."""
    stanza = doc.get("scheduler", {})
    policy = stanza.get("policy", "fifo")
    if policy == "priority":
        return PriorityScheduler(aging_rate=float(stanza.get("aging_rate", 0.0)))
    if policy == "backfill":
        return BackfillScheduler()
    return FIFOScheduler()


def build_retry(doc: dict) -> Optional[RetryPolicy]:
    """The ``retry`` stanza → a :class:`RetryPolicy` (``None`` if absent)."""
    stanza = doc.get("retry")
    if stanza is None:
        return None
    return RetryPolicy(
        max_attempts=int(stanza.get("max_attempts", 3)),
        backoff_base_s=float(stanza.get("backoff_base_s", 0.25)),
        backoff_factor=float(stanza.get("backoff_factor", 2.0)),
        backoff_max_s=float(stanza.get("backoff_max_s", 30.0)),
        jitter=float(stanza.get("jitter", 0.1)),
        retry_on=frozenset(stanza.get("retry_on", ("failed", "timeout", "node_lost"))),
    )


def build_health_policy(doc: dict) -> tuple[bool, Optional[HealthPolicy]]:
    """The ``health`` stanza → ``(track_health, policy)``.

    An absent stanza means the distributor default (tracking on, default
    policy) — normalised to an explicit :class:`HealthPolicy` so diffing
    an omitted stanza against spelled-out defaults is a no-op;
    ``{"enabled": false}`` turns the monitor off.
    """
    stanza = doc.get("health")
    if stanza is None:
        return True, HealthPolicy()
    if not stanza.get("enabled", True):
        return False, None
    return True, HealthPolicy(
        suspect_after=int(stanza.get("suspect_after", 3)),
        window_s=float(stanza.get("window_s", 60.0)),
        probation_s=float(stanza.get("probation_s", 120.0)),
        degraded_below=float(stanza.get("degraded_below", 0.5)),
    )


def build_pools(doc: dict) -> list[NodePool]:
    """The ``fleet.pools`` list → :class:`NodePool` objects."""
    fleet = doc.get("fleet")
    if fleet is None:
        return []
    types = doc.get("cluster", {}).get("node_types", {})
    pools = []
    for stanza in fleet.get("pools", []):
        pools.append(
            NodePool(
                name=stanza["name"],
                spec=build_node_spec(types[stanza["node_type"]]),
                segment=stanza["segment"],
                min_nodes=int(stanza.get("min_nodes", 0)),
                max_nodes=int(stanza.get("max_nodes", 8)),
                spot=bool(stanza.get("spot", False)),
                warmup_s=float(stanza.get("warmup_s", 0.0)),
            )
        )
    return pools


def build_scaling_policy(doc: dict) -> ScalingPolicy:
    """The ``fleet.scaling`` stanza → a policy instance."""
    scaling = doc.get("fleet", {}).get("scaling") or {}
    step = int(scaling.get("step", 2))
    if scaling.get("policy", "target-queue-depth") == "queue-wait-p95":
        return QueueWaitP95Policy(
            out_wait_s=float(scaling.get("out_wait_s", 30.0)),
            in_wait_s=float(scaling.get("in_wait_s", 2.0)),
            step=step,
        )
    return TargetQueueDepthPolicy(
        out_depth_per_node=float(scaling.get("out_depth_per_node", 4.0)),
        in_depth_per_node=float(scaling.get("in_depth_per_node", 0.5)),
        step=step,
    )


def build_fleet(doc: dict, dist, check: bool = True) -> Optional[ScalingManager]:
    """The ``fleet`` stanza → a :class:`ScalingManager` bound to ``dist``.

    Returns ``None`` when the document declares no fleet.  The manager
    self-registers on ``dist.fleet`` exactly as hand-constructed ones do.
    """
    if check:
        ensure_valid(doc)
    if doc.get("fleet") is None:
        return None
    scaling = doc["fleet"].get("scaling") or {}
    return ScalingManager(
        dist,
        build_pools(doc),
        build_scaling_policy(doc),
        scale_out_cooldown_s=float(scaling.get("scale_out_cooldown_s", 15.0)),
        scale_in_cooldown_s=float(scaling.get("scale_in_cooldown_s", 60.0)),
        idle_s=float(scaling.get("idle_s", 30.0)),
    )


def build_admission(doc: dict, now_fn=None):
    """The ``admission`` stanza → an :class:`AdmissionController`.

    Returns ``None`` when the stanza is absent (admit everything).
    """
    stanza = doc.get("admission")
    if stanza is None:
        return None
    from repro.portal.admission import AdmissionController

    kwargs = {}
    if now_fn is not None:
        kwargs["now_fn"] = now_fn
    return AdmissionController(
        rate_per_s=float(stanza.get("rate_per_s", 50.0)),
        burst=float(stanza.get("burst", 100.0)),
        max_inflight=int(stanza.get("max_inflight", 64)),
        queue_limit=int(stanza.get("queue_limit", 128)),
        max_users=int(stanza.get("max_users", 100_000)),
        drain_rate_per_s=float(stanza.get("drain_rate_per_s", 500.0)),
        **kwargs,
    )


def build_toolchains(doc: dict):
    """The ``toolchains`` stanza → a :class:`ToolchainRegistry`."""
    from repro.toolchain.python_lang import PythonToolchain
    from repro.toolchain.registry import ToolchainRegistry

    stanza = doc.get("toolchains") or {}
    registry = ToolchainRegistry(prefer_real=bool(stanza.get("prefer_real", True)))
    if "python" in stanza.get("languages", []):
        registry.register(PythonToolchain(), extensions=(".py",))
    return registry


def build_distributor(doc: dict, backend, check: bool = True, **kwargs):
    """Spec document + execution backend → a configured distributor.

    ``kwargs`` pass through to :class:`JobDistributor` (``now_fn``,
    ``defer_fn``, ``journal``, ``seed``, ...).  The fleet stanza is NOT
    materialised here — call :func:`build_fleet` on the result, so DES
    callers can wire the tick driver in between.
    """
    from repro.cluster.distributor import JobDistributor

    if check:
        ensure_valid(doc)
    track, policy = build_health_policy(doc)
    return JobDistributor(
        build_cluster(doc, check=False),
        backend,
        scheduler=build_scheduler(doc),
        retry=build_retry(doc),
        health_policy=policy,
        track_health=track,
        **kwargs,
    )


# -- describe: live state back to a document --------------------------------

_NODE_DEFAULTS = NodeSpec()


def _node_fields(spec: NodeSpec) -> dict:
    """A :class:`NodeSpec` → explicit stanza fields (omit pure defaults)."""
    fields: dict = {}
    if spec.cores != _NODE_DEFAULTS.cores:
        fields["cores"] = spec.cores
    if spec.memory_mb != _NODE_DEFAULTS.memory_mb:
        fields["memory_mb"] = spec.memory_mb
    if spec.has_gpu:
        fields["has_gpu"] = True
    if spec.cpu_ghz != _NODE_DEFAULTS.cpu_ghz:
        fields["cpu_ghz"] = spec.cpu_ghz
    if spec.node_type != _NODE_DEFAULTS.node_type:
        fields["node_type"] = spec.node_type
    return fields


class _TypeNamer:
    """Deterministic ``node_types`` naming for describe round-trips."""

    def __init__(self) -> None:
        self.types: dict[NodeSpec, str] = {}

    def name(self, spec: NodeSpec) -> str:
        if spec in self.types:
            return self.types[spec]
        base = spec.node_type
        candidate, i = base, 2
        while candidate in self.types.values():
            candidate = f"{base}-{i}"
            i += 1
        self.types[spec] = candidate
        return candidate

    def stanza(self) -> dict:
        return {name: _node_fields(spec) for spec, name in self.types.items()}


def describe(dist, name: str = "live") -> dict:
    """Serialise a live distributor back into a spec document.

    The result validates clean and rebuilds an equivalent cluster:
    ``build_cluster_spec(describe(dist)) == dist.grid.spec``.  Fleet
    membership is described by the pool stanzas (elastic capacity), the
    segment stanzas describe the static inventory the grid was built
    with.
    """
    namer = _TypeNamer()
    grid_spec: ClusterSpec = dist.grid.spec
    segments = []
    for seg in grid_spec.segments:
        entry: dict = {
            "name": seg.name,
            "slaves": seg.n_slaves,
            "slave_type": namer.name(seg.slave_spec),
        }
        if seg.master_spec != _DEFAULT_SEGMENT_MASTER:
            entry["master_type"] = namer.name(seg.master_spec)
        segments.append(entry)

    doc: dict = {"cluster": {"name": name, "segments": segments}}
    if grid_spec.master_server_spec != _DEFAULT_GRID_MASTER:
        doc["cluster"]["master_server"] = _node_fields(grid_spec.master_server_spec)

    sched: dict = {"policy": dist.scheduler.name}
    if isinstance(dist.scheduler, PriorityScheduler) and dist.scheduler.aging_rate:
        sched["aging_rate"] = dist.scheduler.aging_rate
    doc["scheduler"] = sched

    if dist.retry is not None:
        doc["retry"] = {
            "max_attempts": dist.retry.max_attempts,
            "backoff_base_s": dist.retry.backoff_base_s,
            "backoff_factor": dist.retry.backoff_factor,
            "backoff_max_s": dist.retry.backoff_max_s,
            "jitter": dist.retry.jitter,
            "retry_on": sorted(dist.retry.retry_on),
        }

    if dist.health is None:
        doc["health"] = {"enabled": False}
    else:
        policy = dist.health.policy
        doc["health"] = {
            "suspect_after": policy.suspect_after,
            "window_s": policy.window_s,
            "probation_s": policy.probation_s,
            "degraded_below": policy.degraded_below,
        }

    fleet = dist.fleet
    if fleet is not None:
        pools = []
        for pool in fleet.pools:
            pools.append({
                "name": pool.name,
                "segment": pool.segment,
                "node_type": namer.name(pool.spec),
                "min_nodes": pool.min_nodes,
                "max_nodes": pool.max_nodes,
                "spot": pool.spot,
                "warmup_s": pool.warmup_s,
            })
        scaling: dict = {"policy": fleet.policy.name, "step": fleet.policy.step}
        if isinstance(fleet.policy, QueueWaitP95Policy):
            scaling["out_wait_s"] = fleet.policy.out_wait_s
            scaling["in_wait_s"] = fleet.policy.in_wait_s
        elif isinstance(fleet.policy, TargetQueueDepthPolicy):
            scaling["out_depth_per_node"] = fleet.policy.out_depth_per_node
            scaling["in_depth_per_node"] = fleet.policy.in_depth_per_node
        scaling["scale_out_cooldown_s"] = fleet.gate.out_cooldown_s
        scaling["scale_in_cooldown_s"] = fleet.gate.in_cooldown_s
        scaling["idle_s"] = fleet.idle_s
        doc["fleet"] = {"pools": pools, "scaling": scaling}

    doc["cluster"]["node_types"] = namer.stanza()
    return doc
