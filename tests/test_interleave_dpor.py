"""Dynamic partial-order reduction: soundness and reduction.

The load-bearing property: at equal (small) bounds, DPOR + sleep sets
must find the *exact same* deadlock/violation/failure/race set as naive
enumeration — for every lab program, broken and fixed alike — while
running strictly fewer schedules whenever the program has commuting
steps.
"""

import pytest

from repro.interleave import (
    Branch,
    DporExplorer,
    ExplorationResult,
    Nop,
    Scheduler,
    SharedVar,
    VMutex,
    STOP_EXHAUSTED,
    STOP_ON_FIRST,
    STOP_SCHEDULE_BUDGET,
    STOP_WALL_CLOCK,
    dependent,
    explore,
    footprint_of,
)
from repro.labs.explore import program, program_ids

from tests.test_interleave_explorer import (
    ab_ba_factory,
    ordered_factory,
    racy_counter_factory,
)

#: small instances so even naive enumeration stays fast.
_SMALL_SIZES = {"lab3": {"rounds": 1}, "lab7": {"items": 1}}


def _sizes_for(lab_id):
    return _SMALL_SIZES.get(lab_id, {})


class TestFootprints:
    def test_read_write_conflict(self):
        v = SharedVar("x", 0)
        r, w = footprint_of(v.read()), footprint_of(v.write(1))
        assert dependent(r, w) and dependent(w, w)
        assert not dependent(r, r), "two reads commute"

    def test_distinct_variables_commute(self):
        a, b = SharedVar("a", 0), SharedVar("b", 0)
        assert not dependent(footprint_of(a.write(1)), footprint_of(b.write(1)))

    def test_mutex_ops_conflict(self):
        m = VMutex("m")
        assert dependent(footprint_of(m.acquire()), footprint_of(m.release()))

    def test_nop_commutes_with_everything(self):
        v = SharedVar("x", 0)
        assert footprint_of(Nop()) == ()
        assert not dependent(footprint_of(Nop()), footprint_of(v.write(1)))


class TestSoundness:
    """DPOR finds exactly what naive finds — the equivalence suite."""

    @pytest.mark.parametrize("pid", program_ids())
    def test_lab_program_equivalence(self, pid):
        lab_id, variant = pid.split(":")
        sizes = _sizes_for(lab_id)
        naive = explore(program(lab_id, variant, **sizes), max_schedules=100_000)
        dpor = explore(
            program(lab_id, variant, **sizes), max_schedules=100_000, strategy="dpor"
        )
        assert naive.stop_reason == dpor.stop_reason == STOP_EXHAUSTED
        assert dpor.finding_set() == naive.finding_set()
        assert dpor.schedules_run <= naive.schedules_run

    @pytest.mark.parametrize(
        "factory", [ab_ba_factory, ordered_factory, racy_counter_factory]
    )
    def test_synthetic_equivalence(self, factory):
        naive = explore(factory, max_schedules=10_000)
        dpor = explore(factory, max_schedules=10_000, strategy="dpor")
        assert naive.stop_reason == dpor.stop_reason == STOP_EXHAUSTED
        assert dpor.finding_set() == naive.finding_set()

    def test_dpor_witness_replays(self):
        """DPOR witnesses are full choice traces: FixedPolicy replays them."""
        from repro.interleave import FixedPolicy

        result = explore(ab_ba_factory, max_schedules=1000, strategy="dpor")
        assert result.deadlocks
        witness, _ = result.deadlocks[0]
        sched, _ = ab_ba_factory(FixedPolicy(list(witness)))
        assert sched.run().deadlocked


class TestReduction:
    def test_commuting_steps_pruned(self):
        """Independent-variable writers: one equivalence class, one run."""

        def factory(policy):
            sched = Scheduler(policy=policy, detect_races=False)
            a, b = SharedVar("a", 0), SharedVar("b", 0)

            def writer(var):
                yield var.write(1)
                yield var.write(2)

            sched.spawn(writer(a), name="p")
            sched.spawn(writer(b), name="q")
            return sched, None

        naive = explore(factory, max_schedules=10_000)
        dpor = explore(factory, max_schedules=10_000, strategy="dpor")
        assert naive.stop_reason == dpor.stop_reason == STOP_EXHAUSTED
        assert dpor.schedules_run == 1, "all steps commute: a single class"
        assert naive.schedules_run > 1

    def test_reduction_on_philosophers(self):
        naive = explore(program("lab6", "broken"), max_schedules=100_000)
        dpor = explore(program("lab6", "broken"), max_schedules=100_000, strategy="dpor")
        assert naive.stop_reason == dpor.stop_reason == STOP_EXHAUSTED
        assert dpor.schedules_run * 10 <= naive.schedules_run
        assert dpor.finding_set() == naive.finding_set()

    def test_naive_branch_points_estimate(self):
        dpor = explore(racy_counter_factory, max_schedules=10_000, strategy="dpor")
        assert dpor.naive_branch_points >= dpor.schedules_run - 1
        assert dpor.algorithm == "dpor"


class TestStopReasons:
    def test_schedule_budget(self):
        result = explore(ab_ba_factory, max_schedules=3, strategy="dpor")
        assert result.stop_reason == STOP_SCHEDULE_BUDGET
        assert result.stop_reason != STOP_EXHAUSTED

    def test_stop_on_first(self):
        result = explore(
            ab_ba_factory, max_schedules=1000, stop_on_first=True, strategy="dpor"
        )
        assert result.stop_reason == STOP_ON_FIRST
        assert len(result.deadlocks) == 1

    def test_wall_clock(self):
        result = explore(
            program("lab7", "fixed"), max_schedules=10**9, max_seconds=0.0,
            strategy="dpor",
        )
        assert result.stop_reason == STOP_WALL_CLOCK

    def test_naive_budget_reason(self):
        result = explore(ab_ba_factory, max_schedules=3)
        assert result.stop_reason == STOP_SCHEDULE_BUDGET
        assert result.stop_reason != STOP_EXHAUSTED

    def test_exhausted_reason(self):
        result = explore(ab_ba_factory, max_schedules=1000)
        assert result.stop_reason == STOP_EXHAUSTED


class TestRaceDedup:
    def test_add_race_sorted_unique(self):
        res = ExplorationResult()
        assert res.add_race("b") and res.add_race("a")
        assert not res.add_race("a"), "duplicate must be dropped"
        assert res.races == ["a", "b"]

    def test_races_stable_across_runs(self):
        first = explore(racy_counter_factory, max_schedules=10_000)
        second = explore(racy_counter_factory, max_schedules=10_000)
        dpor = explore(racy_counter_factory, max_schedules=10_000, strategy="dpor")
        assert first.races == second.races
        assert first.races == sorted(set(first.races))
        assert set(dpor.races) == set(first.races)


class TestMerge:
    def test_counters_add_and_findings_union(self):
        a = ExplorationResult(schedules_run=2, states_explored=10)
        a.deadlocks.append(((0,), "dl"))
        a.add_race("r1")
        b = ExplorationResult(schedules_run=3, states_explored=5, pruned=1)
        b.deadlocks.append(((0,), "dl"))  # duplicate
        b.violations.append(((1,), "bad"))
        b.add_race("r0")
        a.merge(b)
        assert a.schedules_run == 5 and a.states_explored == 15 and a.pruned == 1
        assert a.deadlocks == [((0,), "dl")]
        assert a.violations == [((1,), "bad")]
        assert a.races == ["r0", "r1"]

    def test_worst_reason_wins(self):
        a = ExplorationResult(stop_reason=STOP_EXHAUSTED)
        b = ExplorationResult(stop_reason=STOP_SCHEDULE_BUDGET)
        a.merge(b)
        assert a.stop_reason == STOP_SCHEDULE_BUDGET
        c = ExplorationResult(stop_reason=STOP_WALL_CLOCK)
        a.merge(c)
        assert a.stop_reason == STOP_WALL_CLOCK


class TestPartitionedExploration:
    """The worker-facing DporExplorer API the distributed driver uses."""

    def test_explore_branches_covers_subtrees(self):
        seed = DporExplorer(ab_ba_factory)
        seed_result = seed.run(max_schedules=2)
        branches = seed.take_frontier()
        assert branches, "a tiny seed budget must leave pending branches"

        merged = ExplorationResult(algorithm="dpor").merge(seed_result)
        pending = branches
        dispatched = set()
        while pending:
            fresh = [b for b in pending if b.tids not in dispatched]
            dispatched.update(b.tids for b in fresh)
            pending = []
            for b in fresh:
                worker = DporExplorer(ab_ba_factory)
                merged.merge(worker.explore_branches([b], max_schedules=1000))
                pending.extend(worker.escaped)
                pending.extend(worker.take_frontier())

        solo = explore(ab_ba_factory, max_schedules=1000, strategy="dpor")
        assert merged.finding_set() == solo.finding_set()

    def test_non_owned_backtracks_escape(self):
        seed = DporExplorer(ab_ba_factory)
        seed.run(max_schedules=2)
        branches = seed.take_frontier()
        worker = DporExplorer(ab_ba_factory)
        worker.explore_branches(list(branches), max_schedules=1000)
        for esc in worker.escaped:
            assert not any(
                esc.tids[: len(b.tids)] == b.tids for b in branches
            ), "escaped branches must lie outside the owned subtrees"

    def test_branch_defaults(self):
        b = Branch()
        assert b.tids == () and b.sleep == ()


class TestDynamicCorpus:
    def test_dpor_corpus_clean(self):
        from repro.analysis.corpus import check_dynamic_corpus

        for case, _result, problems in check_dynamic_corpus("dpor"):
            assert not problems, f"{case.lab_id}/{case.variant}: {problems}"
