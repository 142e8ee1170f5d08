"""The declarative cluster spec: validate, build, diff, reconfigure.

Five layers under test:

* **collect-all validation** — a document with N independent violations
  yields all N SPC-* findings (with document paths) from one
  ``validate()`` call, and the seeded fixture corpus pins the exact
  rule-id set per fixture;
* **materialisation** — ``build_cluster_spec`` on the checked-in UHD
  example reproduces ``ClusterSpec.uhd_default()`` exactly, and
  ``describe()`` round-trips a live distributor back into a document
  that validates clean and plans empty against itself;
* **diff planning** — every change class lands in the right strategy
  bucket (in-place / rolling-drain / destroy-recreate);
* **apply** — destroy-recreate is refused while jobs are live; a
  rolling-drain shrink of a busy pool completes with zero acked-job
  loss under the accounting monitor;
* **surfaces** — the portal endpoints (including the student 403), the
  ``cluster.spec.*`` bus RPCs, and the ``python -m repro.spec`` CLI.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro._errors import SpecError
from repro.bus import ClusterBackendService, ClusterProxy, MessageBus
from repro.cluster import (
    ClusterSpec,
    Grid,
    JobDistributor,
    JobRequest,
    JobState,
    NodeSpec,
    SimulatedBackend,
    SubprocessBackend,
)
from repro.desim import Simulator
from repro.portal import PortalClient, make_default_app
from repro.portal.admission import AdmissionController
from repro.portal.client import PortalError
from repro.portal.frontend import FrontendFleet
from repro.spec import (
    SPEC_CORPUS,
    SPEC_RULES,
    Reconfigurer,
    build_cluster_spec,
    build_distributor,
    build_fleet,
    check_spec_corpus,
    describe,
    ensure_valid,
    plan_reconfigure,
    spec_diff,
    valid_spec,
    validate,
)
from repro.spec.__main__ import main as spec_main
from repro.spec.fixtures import _kitchen_sink

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")
UHD_EXAMPLE = os.path.join(EXAMPLES, "uhd_cluster.json")
ELASTIC_EXAMPLE = os.path.join(EXAMPLES, "semester_elastic.json")


def load_example(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def des_world(doc: dict):
    """A distributor (+fleet when declared) over the DES backend."""
    sim = Simulator()
    dist = build_distributor(doc, SimulatedBackend(sim), now_fn=lambda: sim.now)
    fleet = build_fleet(doc, dist, check=False)
    return sim, dist, fleet


class TestCollectAllValidation:
    def test_kitchen_sink_reports_every_violation_at_once(self):
        """Twelve independent violations, one validate() call."""
        report = validate(_kitchen_sink())
        assert report.rule_ids() == sorted(SPEC_CORPUS["kitchen-sink"][1])
        assert not report.ok
        # every finding is anchored to a document path
        assert all(f.path for f in report.findings)
        paths = {f.rule_id: f.path for f in report.findings}
        assert paths["SPC-S002"] == "cluster.name"
        assert paths["SPC-C001"].startswith("fleet.pools[")
        assert paths["SPC-C004"] == "admission.queue_limit"

    def test_validation_never_raises(self):
        for doc in (None, [], "nope", 7, {"cluster": "not-a-dict"}):
            report = validate(doc)
            assert not report.ok

    def test_corpus_exact_rule_id_sets(self):
        assert check_spec_corpus() == []

    def test_baseline_is_clean(self):
        assert validate(valid_spec()).findings == []

    def test_warnings_do_not_block(self):
        doc = valid_spec()
        doc["admission"] = {"burst": 50.0, "queue_limit": 10}  # SPC-C004
        report = validate(doc)
        assert report.ok and report.rule_ids() == ["SPC-C004"]
        ensure_valid(doc)  # must not raise

    def test_ensure_valid_carries_findings(self):
        doc = valid_spec()
        doc["cluster"]["segments"][0]["slave_type"] = "ghost"
        with pytest.raises(SpecError) as exc_info:
            ensure_valid(doc)
        assert [f.rule_id for f in exc_info.value.findings] == ["SPC-R001"]

    def test_every_rule_id_is_catalogued(self):
        for _, expected in SPEC_CORPUS.values():
            assert expected <= set(SPEC_RULES)


class TestMaterialisation:
    def test_uhd_example_reproduces_uhd_default(self):
        doc = load_example(UHD_EXAMPLE)
        assert validate(doc).findings == []
        assert build_cluster_spec(doc) == ClusterSpec.uhd_default()

    def test_elastic_example_is_clean_and_builds(self):
        doc = load_example(ELASTIC_EXAMPLE)
        assert validate(doc).findings == []
        sim, dist, fleet = des_world(doc)
        assert fleet is not None and dist.fleet is fleet
        assert {p.name for p in fleet.pools} == {"base", "burst-spot"}
        assert dist.scheduler.name == "backfill"
        assert "node_lost" in dist.retry.retry_on

    def test_describe_round_trip(self):
        doc = load_example(ELASTIC_EXAMPLE)
        sim, dist, fleet = des_world(doc)
        live = describe(dist)
        assert validate(live).findings == []
        assert build_cluster_spec(live) == dist.grid.spec
        # a replan of the described state against itself is empty
        assert plan_reconfigure(live, copy.deepcopy(live)).actions == []

    def test_spec_diff_lists_changed_paths(self):
        cur = load_example(UHD_EXAMPLE)
        des = copy.deepcopy(cur)
        assert spec_diff(cur, des) == []
        des["scheduler"]["policy"] = "backfill"
        des["cluster"]["segments"][0]["slaves"] = 20
        changed = spec_diff(cur, des)
        assert "scheduler" in changed
        assert any(p.startswith("cluster.segments[seg-a]") for p in changed)


class TestDiffPlanner:
    def test_grow_segment_is_in_place(self):
        cur = valid_spec()
        des = copy.deepcopy(cur)
        des["cluster"]["segments"][0]["slaves"] = 8
        plan = plan_reconfigure(cur, des)
        assert [a.op for a in plan.actions] == ["grow_segment"]
        assert plan.actions[0].strategy == "in-place"

    def test_shrink_segment_is_rolling(self):
        cur = valid_spec()
        des = copy.deepcopy(cur)
        des["cluster"]["segments"][0]["slaves"] = 2
        plan = plan_reconfigure(cur, des)
        assert [a.strategy for a in plan.actions] == ["rolling-drain"]

    def test_retype_segment_is_rolling(self):
        cur = valid_spec()
        des = copy.deepcopy(cur)
        des["cluster"]["node_types"]["standard"]["cores"] = 8
        plan = plan_reconfigure(cur, des)
        assert {a.op for a in plan.actions} == {"retype_segment"}
        assert plan.disruption == "rolling-drain"

    def test_remove_segment_is_destructive(self):
        cur = load_example(UHD_EXAMPLE)
        des = copy.deepcopy(cur)
        del des["cluster"]["segments"][3]
        plan = plan_reconfigure(cur, des)
        assert [a.op for a in plan.actions] == ["remove_segment"]
        assert plan.destructive and plan.disruption == "destroy-recreate"

    def test_master_replacement_is_destructive(self):
        cur = valid_spec()
        des = copy.deepcopy(cur)
        des["cluster"]["master_server"] = {"cores": 16, "memory_mb": 32768}
        plan = plan_reconfigure(cur, des)
        assert [a.op for a in plan.actions] == ["replace_grid_master"]
        assert plan.destructive

    def test_knob_changes_are_in_place(self):
        cur = load_example(ELASTIC_EXAMPLE)
        des = copy.deepcopy(cur)
        des["scheduler"]["policy"] = "priority"
        des["admission"]["max_inflight"] = 32
        des["fleet"]["scaling"]["out_wait_s"] = 20.0
        plan = plan_reconfigure(cur, des)
        assert {a.op for a in plan.actions} == {
            "set_scheduler", "set_admission", "set_scaling",
        }
        assert plan.disruption == "in-place"

    def test_pool_bound_changes(self):
        cur = load_example(ELASTIC_EXAMPLE)
        des = copy.deepcopy(cur)
        des["fleet"]["pools"][0]["max_nodes"] = 4      # lowered -> shrink
        des["fleet"]["pools"][1]["max_nodes"] = 32     # raised  -> update
        plan = plan_reconfigure(cur, des)
        ops = {a.op: a.strategy for a in plan.actions}
        assert ops == {"shrink_pool": "rolling-drain", "update_pool": "in-place"}

    def test_invalid_desired_refused(self):
        cur = valid_spec()
        des = copy.deepcopy(cur)
        des["cluster"]["segments"][0]["slave_type"] = "ghost"
        with pytest.raises(SpecError):
            plan_reconfigure(cur, des)


class TestReconfigurer:
    def test_destroy_refused_while_jobs_live(self):
        doc = valid_spec()
        sim, dist, _ = des_world(doc)
        jobs = [dist.submit(JobRequest(name=f"j{i}", sim_duration=50.0))
                for i in range(4)]
        rc = Reconfigurer(dist)
        desired = rc.describe()
        desired["cluster"]["master_server"] = {"cores": 16, "memory_mb": 32768}
        with pytest.raises(SpecError, match="destroy-recreate"):
            rc.apply(desired)
        # nothing was touched
        assert dist.grid.spec.master_server_spec.cores == 8
        sim.run()
        assert all(j.state is JobState.COMPLETED for j in jobs)
        # idle cluster: the same apply goes through
        result = rc.apply(desired)
        assert result["complete"]
        assert dist.grid.spec.master_server_spec.cores == 16

    def test_in_place_knobs_apply_immediately(self):
        doc = valid_spec()
        sim, dist, _ = des_world(doc)
        rc = Reconfigurer(dist)
        desired = rc.describe()
        desired["scheduler"] = {"policy": "backfill"}
        desired["retry"] = {"max_attempts": 5, "retry_on": ["failed", "node_lost"]}
        result = rc.apply(desired)
        assert result["complete"]
        assert dist.scheduler.name == "backfill"
        assert dist.retry.max_attempts == 5

    def test_grow_segment_in_place(self):
        doc = valid_spec()
        sim, dist, _ = des_world(doc)
        rc = Reconfigurer(dist)
        desired = rc.describe()
        desired["cluster"]["segments"][0]["slaves"] = 7
        result = rc.apply(desired)
        assert result["complete"]
        assert len(dist.grid.segment("seg-0").slaves) == 7
        # level-triggered: re-applying the same document is a no-op
        assert rc.plan(desired).actions == []

    def test_add_segment_in_place(self):
        doc = valid_spec()
        sim, dist, _ = des_world(doc)
        rc = Reconfigurer(dist)
        desired = rc.describe()
        desired["cluster"]["segments"].append(
            {"name": "seg-1", "slaves": 3, "slave_type": "standard"}
        )
        result = rc.apply(desired)
        assert result["complete"]
        assert len(dist.grid.segment("seg-1").slaves) == 3
        assert rc.plan(desired).actions == []

    def test_busy_pool_shrink_rolls_with_zero_acked_loss(self):
        """The acceptance scenario: shrink a busy pool, lose nothing."""
        doc = valid_spec()
        doc["fleet"] = {
            "pools": [{"name": "burst", "segment": "seg-0",
                       "node_type": "standard", "min_nodes": 4,
                       "max_nodes": 8}],
            "scaling": {"policy": "target-queue-depth", "step": 2,
                        "scale_out_cooldown_s": 0.0,
                        "scale_in_cooldown_s": 1e9, "idle_s": 1e9},
        }
        sim, dist, fleet = des_world(doc)
        fleet.tick()  # min_nodes floor joins 4 managed nodes
        assert fleet.pool_sizes() == {"burst": 4}
        # saturate every node (static + managed) with long jobs
        jobs = [dist.submit(JobRequest(name=f"j{i}", sim_duration=30.0,
                                       cores_per_task=4))
                for i in range(16)]
        sim.run(until=1.0)
        running = sum(1 for j in jobs if j.state is JobState.RUNNING)
        assert running >= 8  # the pool is genuinely busy

        rc = Reconfigurer(dist)
        desired = rc.describe()
        pool = desired["fleet"]["pools"][0]
        pool["min_nodes"], pool["max_nodes"] = 0, 1
        result = rc.apply(desired)
        plan_ops = {a["op"] for a in result["plan"]["actions"]}
        assert "shrink_pool" in plan_ops
        assert not result["complete"]          # drains outstanding
        assert len(result["pending"]) == 3     # 4 managed - new max 1

        # pump virtual time; drains complete only as nodes go idle
        for _ in range(200):
            sim.run(until=sim.now + 1.0)
            if rc.tick() == 0 and all(
                j.state is JobState.COMPLETED for j in jobs
            ):
                break
        assert rc.done
        assert fleet.pool_sizes() == {"burst": 1}
        # zero acked-job loss, confirmed by the accounting monitor
        assert all(j.state is JobState.COMPLETED for j in jobs)
        summary = dist.monitor.summary()
        assert summary["by_state"] == {"completed": len(jobs)}

    def test_retype_drains_and_replaces(self):
        doc = valid_spec()
        sim, dist, _ = des_world(doc)
        rc = Reconfigurer(dist)
        desired = rc.describe()
        desired["cluster"]["node_types"]["standard"]["cores"] = 8
        result = rc.apply(desired)
        # idle cluster: every slave drained and replaced within the apply
        for _ in range(8):
            if rc.tick() == 0:
                break
        assert rc.done
        assert all(n.spec.cores == 8 for n in dist.grid.segment("seg-0").slaves)
        assert rc.plan(desired).actions == []


class TestPortalSurface:
    def test_get_spec_describes_live_cluster(self, admin_client):
        doc = admin_client.cluster_spec()
        assert validate(doc).findings == []
        assert "cluster" in doc and "scheduler" in doc

    def test_validate_endpoint_always_200(self, student_client):
        report = student_client.validate_spec(_kitchen_sink())
        assert not report["ok"]
        assert report["rule_ids"] == sorted(SPEC_CORPUS["kitchen-sink"][1])
        clean = student_client.validate_spec(valid_spec())
        assert clean["ok"] and clean["findings"] == []

    def test_student_cannot_reconfigure(self, student_client):
        with pytest.raises(PortalError, match="403"):
            student_client.reconfigure(valid_spec())

    def test_unauthenticated_spec_rejected(self, portal_app):
        c = PortalClient(app=portal_app)
        with pytest.raises(PortalError, match="401"):
            c.cluster_spec()

    def test_plan_then_apply(self, portal_app, admin_client):
        live = admin_client.cluster_spec()
        desired = copy.deepcopy(live)
        desired["scheduler"] = {"policy": "priority", "aging_rate": 0.5}
        planned = admin_client.reconfigure(desired)
        assert planned["applied"] is False
        assert [a["op"] for a in planned["plan"]["actions"]] == ["set_scheduler"]
        applied = admin_client.reconfigure(desired, apply=True)
        assert applied["applied"] and applied["complete"]
        assert portal_app.proxy.distributor.scheduler.name == "priority"

    def test_invalid_spec_is_400_with_findings(self, admin_client):
        bad = valid_spec()
        bad["cluster"]["segments"][0]["slave_type"] = "ghost"
        with pytest.raises(PortalError, match="400"):
            admin_client.reconfigure(bad)


class TestPortalStanzas:
    """An applied admission or toolchains stanza retunes every portal app."""

    @staticmethod
    def _apply_and_check(apps):
        clients = [PortalClient(app=app) for app in apps]
        for client in clients:
            client.login("admin", "admin-pass")
        apps[0].files.write("admin", "hello.py", b"print('hi')\n")
        for client in clients:
            with pytest.raises(PortalError):
                client.compile("hello.py")  # no Python toolchain yet
        desired = clients[0].cluster_spec()
        desired["admission"] = {"rate_per_s": 7.0}
        desired["toolchains"] = {"languages": ["python"]}
        applied = clients[0].reconfigure(desired, apply=True)
        assert {a["op"] for a in applied["plan"]["actions"]} == {
            "set_admission", "set_toolchains"
        }
        for app, client in zip(apps, clients):
            assert app.admission.rate_per_s == 7.0
            assert client.compile("hello.py")["ok"]
            # the live document now carries the applied stanzas: replanning
            # it is a no-op on every app
            assert client.reconfigure(client.cluster_spec())["plan"]["actions"] == []

    def test_reaches_every_worker_of_a_fleet(self, tmp_path):
        fleet = FrontendFleet(
            JobDistributor(Grid(ClusterSpec.small()), SubprocessBackend()),
            n_workers=2,
            admission_factory=lambda _i: AdmissionController(),
            home_root=str(tmp_path / "homes"),
        ).start()
        try:
            fleet.users.add_user("admin", "admin-pass", role="admin")
            self._apply_and_check(fleet.workers)
        finally:
            fleet.stop()

    def test_reaches_the_monolith(self, tmp_path):
        app = make_default_app(
            str(tmp_path / "homes"), cluster_spec=ClusterSpec.small(),
            admission=AdmissionController(),
        )
        self._apply_and_check([app])


class TestBusSurface:
    def test_spec_rpcs_round_trip(self):
        sim, dist, _ = des_world(valid_spec())
        bus = MessageBus()
        service = ClusterBackendService(bus, dist)
        service.start()
        try:
            proxy = ClusterProxy(bus)
            live = proxy.spec_describe()
            assert validate(live).findings == []
            planned = proxy.spec_reconfigure(live, manage=True)
            assert planned == {"applied": False,
                               "plan": {"actions": [],
                                        "summary": "no changes",
                                        "disruption": "none"}}
        finally:
            service.stop()

    def test_reconfigure_requires_manage_capability(self):
        sim, dist, _ = des_world(valid_spec())
        bus = MessageBus()
        service = ClusterBackendService(bus, dist)
        service.start()
        try:
            proxy = ClusterProxy(bus)
            with pytest.raises(Exception, match="manage_cluster"):
                proxy.spec_reconfigure(valid_spec())
        finally:
            service.stop()

    def test_apply_over_the_bus(self):
        sim, dist, _ = des_world(valid_spec())
        bus = MessageBus()
        service = ClusterBackendService(bus, dist)
        service.start()
        try:
            proxy = ClusterProxy(bus)
            desired = proxy.spec_describe()
            desired["scheduler"] = {"policy": "backfill"}
            result = proxy.spec_reconfigure(desired, apply=True, manage=True)
            assert result["applied"] and result["complete"]
            assert dist.scheduler.name == "backfill"
        finally:
            service.stop()


class TestCli:
    def test_validate_clean_examples(self, capsys):
        assert spec_main(["validate", UHD_EXAMPLE, ELASTIC_EXAMPLE]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_validate_invalid_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_kitchen_sink()))
        assert spec_main(["validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SPC-S001" in out and "SPC-C006" in out

    def test_validate_json_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_kitchen_sink()))
        spec_main(["validate", str(bad), "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["rule_ids"] == sorted(SPEC_CORPUS["kitchen-sink"][1])

    def test_diff_and_plan(self, tmp_path, capsys):
        cur = tmp_path / "cur.json"
        des = tmp_path / "des.json"
        cur.write_text(json.dumps(valid_spec()))
        doc = valid_spec()
        doc["scheduler"]["policy"] = "backfill"
        des.write_text(json.dumps(doc))
        assert spec_main(["diff", str(cur), str(des)]) == 1
        assert "scheduler" in capsys.readouterr().out
        assert spec_main(["diff", str(cur), str(cur)]) == 0
        capsys.readouterr()
        assert spec_main(["plan", str(cur), str(des)]) == 0
        assert "set_scheduler" in capsys.readouterr().out

    def test_corpus_subcommand(self, capsys):
        assert spec_main(["corpus"]) == 0
        assert "0 problem(s)" in capsys.readouterr().out

    def test_list_rules_subcommand(self, capsys):
        assert spec_main(["list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in SPEC_RULES:
            assert rule_id in out
