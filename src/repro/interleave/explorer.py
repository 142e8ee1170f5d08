"""Bounded systematic exploration of thread schedules.

Stateless model checking in miniature: re-run a (deterministically
replayable) concurrent program under every schedule reachable within a
budget, enumerating the scheduling tree via choice prefixes.

This is what lets the labs make *universal* claims — "the ordered
dining-philosophers program never deadlocks (for all schedules up to the
bound)" — instead of the probabilistic "we ran it a few times and it
didn't hang" that real hardware offers.

The program under test is supplied as a **factory**: a callable that,
given a :class:`~repro.interleave.scheduler.Policy`, builds *fresh*
shared state, spawns the threads onto a fresh scheduler, and returns
``(scheduler, check)``, where ``check`` is ``None`` or a callable run
after completion returning an error string (or ``None`` if the final
state is acceptable).

Three strategies share one driver loop through a pluggable frontier:

* ``"dfs"`` / ``"bfs"`` — naive enumeration branching on *every*
  runnable thread at every step (the scheduling tree, verbatim);
* ``"dpor"`` — dynamic partial-order reduction with sleep sets
  (:mod:`~repro.interleave.dpor`), which only branches where executed
  steps actually conflict and therefore visits one schedule per
  Mazurkiewicz equivalence class (up to sleep-set-blocked redundancy)
  while finding the exact same deadlock/violation/race set.
"""

from __future__ import annotations

import bisect
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.interleave.scheduler import FixedPolicy, Policy, RunResult, Scheduler

__all__ = [
    "ExplorationResult",
    "explore",
    "STOP_EXHAUSTED",
    "STOP_SCHEDULE_BUDGET",
    "STOP_STEP_BOUND",
    "STOP_WALL_CLOCK",
    "STOP_ON_FIRST",
]

ProgramFactory = Callable[[Policy], tuple[Scheduler, Optional[Callable[[RunResult], Optional[str]]]]]

#: every schedule within the step bound was covered.
STOP_EXHAUSTED = "exhausted"
#: the ``max_schedules`` budget ran out with frontier left.
STOP_SCHEDULE_BUDGET = "schedule_budget"
#: the frontier drained, but some run hit the scheduler's step bound.
STOP_STEP_BOUND = "step_bound"
#: the ``max_seconds`` wall-clock budget ran out with frontier left.
STOP_WALL_CLOCK = "wall_clock"
#: ``stop_on_first`` fired on a finding.
STOP_ON_FIRST = "stop_on_first"

#: when merging partial results, the "most stopped" reason wins.
_REASON_SEVERITY = (
    STOP_WALL_CLOCK,
    STOP_SCHEDULE_BUDGET,
    STOP_ON_FIRST,
    STOP_STEP_BOUND,
    STOP_EXHAUSTED,
)


@dataclass
class ExplorationResult:
    """Aggregate outcome of a bounded exploration.

    ``stop_reason`` says *why* the exploration loop ended (one of the
    ``STOP_*`` constants); :data:`STOP_EXHAUSTED` means every schedule
    within the step bound was covered.  Findings carry a replayable witness: feed the
    choice tuple to :class:`~repro.interleave.scheduler.FixedPolicy` and
    the program's factory to reproduce the schedule.
    """

    schedules_run: int = 0
    stop_reason: str = STOP_EXHAUSTED
    algorithm: str = "dfs"
    states_explored: int = 0
    """Scheduler steps executed across all runs (throughput metric)."""
    pruned: int = 0
    """Runs aborted by the sleep set (DPOR only): redundant schedules."""
    naive_branch_points: int = 0
    """Σ (runnable − 1) over distinct states seen (DPOR only): a lower
    bound on the naive schedule count over the same states, so
    ``(1 + naive_branch_points) / schedules_run`` estimates the
    reduction ratio online without running the naive explorer."""
    step_bounded: bool = False
    """Some run hit the scheduler's ``max_steps`` safety bound."""
    elapsed_s: float = 0.0
    deadlocks: list[tuple[tuple[int, ...], str]] = field(default_factory=list)
    """``(choice_witness, message)`` for every deadlocking schedule found."""
    violations: list[tuple[tuple[int, ...], str]] = field(default_factory=list)
    """``(choice_witness, message)`` for every check failure found."""
    failures: list[tuple[tuple[int, ...], str]] = field(default_factory=list)
    """Thread exceptions (uncaught) per schedule."""
    races: list[str] = field(default_factory=list)
    """Unique race descriptions, kept sorted (stable across run order)."""

    @property
    def clean(self) -> bool:
        """No deadlock, violation or thread failure in any explored schedule."""
        return not (self.deadlocks or self.violations or self.failures)

    def add_race(self, text: str) -> bool:
        """Insert a race description keeping ``races`` sorted and unique."""
        i = bisect.bisect_left(self.races, text)
        if i < len(self.races) and self.races[i] == text:
            return False
        self.races.insert(i, text)
        return True

    def finding_set(self) -> frozenset[tuple[str, str]]:
        """Witness-independent findings: ``(kind, message)`` pairs.

        Different exploration orders (or algorithms) reach the same bug
        through different schedules; stripping the witness makes results
        comparable — this is what the DPOR-vs-naive equivalence suite
        asserts on.
        """
        found: set[tuple[str, str]] = set()
        found.update(("deadlock", msg) for _, msg in self.deadlocks)
        found.update(("violation", msg) for _, msg in self.violations)
        found.update(("failure", msg) for _, msg in self.failures)
        found.update(("race", text) for text in self.races)
        return frozenset(found)

    def merge(self, other: "ExplorationResult") -> "ExplorationResult":
        """Fold a partial result (e.g. one worker's subtree) into this one.

        Counters add; findings union with duplicates dropped and a
        deterministic sort so the merged report is independent of worker
        completion order; the "most stopped" reason wins.
        """
        self.schedules_run += other.schedules_run
        self.states_explored += other.states_explored
        self.pruned += other.pruned
        self.naive_branch_points += other.naive_branch_points
        self.step_bounded = self.step_bounded or other.step_bounded
        for attr in ("deadlocks", "violations", "failures"):
            combined = set(getattr(self, attr))
            combined.update(getattr(other, attr))
            setattr(self, attr, sorted(combined))
        for text in other.races:
            self.add_race(text)
        for reason in _REASON_SEVERITY:
            if reason in (self.stop_reason, other.stop_reason):
                self.stop_reason = reason
                break
        return self

    def as_dict(self) -> dict:
        """JSON-able view (the portal's explore result page)."""
        return {
            "algorithm": self.algorithm,
            "schedules_run": self.schedules_run,
            "stop_reason": self.stop_reason,
            "clean": self.clean,
            "states_explored": self.states_explored,
            "pruned": self.pruned,
            "naive_branch_points": self.naive_branch_points,
            "step_bounded": self.step_bounded,
            "elapsed_s": self.elapsed_s,
            "deadlocks": [[list(w), m] for w, m in self.deadlocks],
            "violations": [[list(w), m] for w, m in self.violations],
            "failures": [[list(w), m] for w, m in self.failures],
            "races": list(self.races),
            "summary": self.summary(),
        }

    def summary(self) -> str:
        """One-line human summary."""
        if self.stop_reason == STOP_EXHAUSTED:
            how = " (exhaustive within bound)"
        else:
            how = f" (stopped: {self.stop_reason})"
        return (
            f"{self.schedules_run} schedule(s) explored{how}: "
            f"{len(self.deadlocks)} deadlock(s), {len(self.violations)} violation(s), "
            f"{len(self.failures)} thread failure(s), {len(self.races)} distinct race(s)"
        )


# -- pluggable frontier ---------------------------------------------------------


class Frontier:
    """Order in which pending branches are explored."""

    def __init__(self, seed: Iterable = ()) -> None:
        self._items: deque = deque(seed)

    def push(self, item) -> None:
        self._items.append(item)

    def pop(self):
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._items)


class LifoFrontier(Frontier):
    """Depth-first: dive deep along late divergences first."""

    def pop(self):
        return self._items.pop()


class FifoFrontier(Frontier):
    """Breadth-first: explore early divergences first."""

    def pop(self):
        return self._items.popleft()


_FRONTIERS = {"dfs": LifoFrontier, "bfs": FifoFrontier}


def _collect_findings(result: ExplorationResult, run: RunResult, witness: tuple[int, ...],
                      check) -> bool:
    """Fold one run's outcome into ``result``; True if it found a problem."""
    found = False
    if run.deadlocked:
        result.deadlocks.append((witness, str(run.deadlock)))
        found = True
    for name, exc in run.failures.items():
        result.failures.append((witness, f"{name}: {type(exc).__name__}: {exc}"))
        found = True
    if check is not None and run.completed:
        msg = check(run)
        if msg:
            result.violations.append((witness, msg))
            found = True
    for race in run.races:
        result.add_race(str(race))
    return found


def _record_telemetry(result: ExplorationResult) -> None:
    from repro.telemetry import get_registry
    from repro.telemetry.instruments import ExploreTelemetry

    ExploreTelemetry(get_registry()).record(result)


def explore(
    factory: ProgramFactory,
    max_schedules: int = 256,
    stop_on_first: bool = False,
    strategy: str = "dfs",
    max_seconds: float | None = None,
) -> ExplorationResult:
    """Exhaustively (within budget) explore the schedules of a program.

    Parameters
    ----------
    factory:
        Program factory as described in the module docstring.
    max_schedules:
        Budget on distinct schedules to run.
    stop_on_first:
        Stop as soon as any deadlock/violation/failure is found — useful
        when the goal is a witness schedule, not a proof of absence.
    strategy:
        ``"dfs"`` (default) dives deep along late divergences first;
        ``"bfs"`` explores early divergences first, which finds bugs
        that require several *early* scheduling choices with far fewer
        schedules; ``"dpor"`` applies dynamic partial-order reduction
        with sleep sets, pruning schedules that only reorder
        non-conflicting steps — usually orders of magnitude fewer runs
        for the same findings.
    max_seconds:
        Optional wall-clock budget; exceeding it sets
        ``stop_reason == "wall_clock"``.

    Returns
    -------
    ExplorationResult
        ``stop_reason`` says why the loop ended.

    Notes
    -----
    Naive enumeration: each run follows a *choice prefix* then defaults
    to index 0.  From the observed ``choice_trace`` we branch: for every
    step ``i`` at or beyond the prefix where ``k`` threads were runnable,
    prefixes ``trace[:i] + [c]`` for ``c = 1..k-1`` are pushed.  This
    visits each schedule exactly once.  DPOR instead derives branch
    points from conflicting step pairs (see :mod:`repro.interleave.dpor`).
    """
    if strategy == "dpor":
        from repro.interleave.dpor import DporExplorer

        result = DporExplorer(factory).run(
            max_schedules=max_schedules,
            stop_on_first=stop_on_first,
            max_seconds=max_seconds,
        )
        _record_telemetry(result)
        return result
    if strategy not in _FRONTIERS:
        raise ValueError(f"unknown exploration strategy {strategy!r} (dfs, bfs or dpor)")

    started = time.perf_counter()
    deadline = None if max_seconds is None else started + max_seconds
    pending: Frontier = _FRONTIERS[strategy]([()])
    result = ExplorationResult(algorithm=strategy)

    while pending:
        if result.schedules_run >= max_schedules:
            result.stop_reason = STOP_SCHEDULE_BUDGET
            break
        if deadline is not None and time.perf_counter() >= deadline:
            result.stop_reason = STOP_WALL_CLOCK
            break
        prefix = pending.pop()
        scheduler, check = factory(FixedPolicy(list(prefix)))
        run = scheduler.run()
        result.schedules_run += 1
        result.states_explored += len(run.choice_trace)

        if run.bounded:
            result.step_bounded = True

        if _collect_findings(result, run, prefix, check) and stop_on_first:
            result.stop_reason = STOP_ON_FIRST
            break

        # Branch: alternatives at every decision point at/after the prefix.
        choices = [c for _, c in run.choice_trace]
        for i in range(len(prefix), len(run.choice_trace)):
            n_runnable, _ = run.choice_trace[i]
            for alt in range(1, n_runnable):
                pending.push(tuple(choices[:i]) + (alt,))
    else:
        if result.step_bounded:
            result.stop_reason = STOP_STEP_BOUND

    result.elapsed_s = time.perf_counter() - started
    _record_telemetry(result)
    return result
