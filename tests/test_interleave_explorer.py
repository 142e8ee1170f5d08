"""Systematic schedule exploration."""

from repro.interleave import (
    STOP_EXHAUSTED,
    Nop,
    Scheduler,
    SharedVar,
    VMutex,
    explore,
)


def ab_ba_factory(policy):
    """The classic two-lock deadlock program."""
    sched = Scheduler(policy=policy, detect_races=False)
    a, b = VMutex("A"), VMutex("B")

    def t1():
        yield a.acquire()
        yield Nop()
        yield b.acquire()
        yield b.release()
        yield a.release()

    def t2():
        yield b.acquire()
        yield Nop()
        yield a.acquire()
        yield a.release()
        yield b.release()

    sched.spawn(t1(), name="p")
    sched.spawn(t2(), name="q")
    return sched, None


def ordered_factory(policy):
    """Both threads acquire in the same order: no deadlock possible."""
    sched = Scheduler(policy=policy, detect_races=False)
    a, b = VMutex("A"), VMutex("B")

    def t():
        yield a.acquire()
        yield Nop()
        yield b.acquire()
        yield b.release()
        yield a.release()

    sched.spawn(t(), name="p")
    sched.spawn(t(), name="q")
    return sched, None


def racy_counter_factory(policy):
    """Counter race with a final-state check."""
    sched = Scheduler(policy=policy)
    var = SharedVar("c", 0)

    def body(var):
        for _ in range(2):
            v = yield var.read()
            yield var.write(v + 1)

    sched.spawn(body(var), name="a")
    sched.spawn(body(var), name="b")

    def check(run):
        return None if var.value == 4 else f"lost update: {var.value} != 4"

    return sched, check


class TestExplore:
    def test_finds_ab_ba_deadlock(self):
        result = explore(ab_ba_factory, max_schedules=200)
        assert result.deadlocks, "exploration must find the AB/BA deadlock"
        assert result.stop_reason == STOP_EXHAUSTED

    def test_proves_ordered_program_deadlock_free(self):
        result = explore(ordered_factory, max_schedules=500)
        assert result.stop_reason == STOP_EXHAUSTED and result.clean

    def test_finds_lost_update_violation(self):
        result = explore(racy_counter_factory, max_schedules=500)
        assert result.violations, "some schedule must lose an update"
        assert result.races, "the lockset detector should also fire"

    def test_stop_on_first_halts_early(self):
        full = explore(ab_ba_factory, max_schedules=500)
        early = explore(ab_ba_factory, max_schedules=500, stop_on_first=True)
        assert early.schedules_run <= full.schedules_run
        assert len(early.deadlocks) == 1

    def test_budget_exhaustion_flagged(self):
        result = explore(ab_ba_factory, max_schedules=3)
        assert result.schedules_run == 3
        assert result.stop_reason != STOP_EXHAUSTED

    def test_deadlock_prefix_replays(self):
        """A reported prefix actually reproduces the deadlock."""
        from repro.interleave import FixedPolicy

        result = explore(ab_ba_factory, max_schedules=200, stop_on_first=True)
        prefix, _ = result.deadlocks[0]
        sched, _ = ab_ba_factory(FixedPolicy(list(prefix)))
        run = sched.run()
        assert run.deadlocked

    def test_summary_mentions_counts(self):
        result = explore(ab_ba_factory, max_schedules=100)
        text = result.summary()
        assert "deadlock" in text and "schedule" in text


class TestStrategies:
    def test_bfs_finds_ab_ba_deadlock(self):
        result = explore(ab_ba_factory, max_schedules=200, strategy="bfs")
        assert result.deadlocks

    def test_bfs_finds_shallow_bug_faster_than_dfs(self):
        """The AB/BA deadlock needs two *early* choices: BFS hits it first."""
        dfs = explore(ab_ba_factory, max_schedules=500, stop_on_first=True, strategy="dfs")
        bfs = explore(ab_ba_factory, max_schedules=500, stop_on_first=True, strategy="bfs")
        assert bfs.deadlocks and dfs.deadlocks
        assert bfs.schedules_run <= dfs.schedules_run

    def test_bfs_exhaustive_agrees_with_dfs(self):
        dfs = explore(ab_ba_factory, max_schedules=500, strategy="dfs")
        bfs = explore(ab_ba_factory, max_schedules=500, strategy="bfs")
        assert dfs.stop_reason == bfs.stop_reason == STOP_EXHAUSTED
        assert len(dfs.deadlocks) == len(bfs.deadlocks)
        assert dfs.schedules_run == bfs.schedules_run

    def test_unknown_strategy_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            explore(ab_ba_factory, strategy="random")
