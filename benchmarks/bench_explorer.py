"""Schedule-exploration throughput and DPOR reduction guards.

The perf contract behind DESIGN §12:

1. **Reduction** — DPOR + sleep sets must cover the schedule space of
   lab 6 (dining philosophers) and lab 7 (bounded buffer) with at least
   10× fewer schedules than naive enumeration at equal bounds, while
   witnessing the *identical* finding set.

2. **Feasibility** — the default-size broken bounded buffer is
   infeasible for naive enumeration (>1,000,000 schedules); DPOR must
   exhaust it outright in a handful of runs.

3. **Throughput** — the DPOR driver must sustain a healthy
   states-per-second rate (it re-executes programs, so per-step
   overhead is the whole game).

4. **Distributed driver** — partitioning the frontier across cluster
   jobs must preserve the findings at every partition count.

Run as a script for the tables, or ``--ci`` for the fast equivalence
slice wired into the lint job:

    PYTHONPATH=src python benchmarks/bench_explorer.py [--ci]
"""

from __future__ import annotations

import sys
import time

import pytest

from repro.cluster.backends import CallableBackend
from repro.cluster.distributor import JobDistributor
from repro.cluster.grid import Grid
from repro.cluster.spec import ClusterSpec
from repro.cluster.workloads import ExploreJobSpec, run_exploration
from repro.interleave.explorer import STOP_EXHAUSTED, explore
from repro.labs.explore import program, program_ids

pytestmark = pytest.mark.perf

REDUCTION_FLOOR = 10.0
STATES_PER_S_FLOOR = 5_000.0
NAIVE_INFEASIBLE_BUDGET = 20_000
BOUND = 100_000

#: equal-bound reduction cases: naive finishes, DPOR must beat it >= 10x.
REDUCTION_CASES = (
    ("lab6", "broken"),
    ("lab6", "fixed"),
    ("lab7", "fixed"),
    ("lab7", "fixed_semaphore"),
)


def _pair(lab_id: str, variant: str, bound: int = BOUND):
    naive = explore(program(lab_id, variant), max_schedules=bound)
    dpor = explore(program(lab_id, variant), max_schedules=bound, strategy="dpor")
    return naive, dpor


def test_dpor_reduction_on_lab6_and_lab7(report):
    rows = []
    for lab_id, variant in REDUCTION_CASES:
        naive, dpor = _pair(lab_id, variant)
        assert naive.stop_reason == dpor.stop_reason == STOP_EXHAUSTED
        assert dpor.finding_set() == naive.finding_set(), (
            f"{lab_id}/{variant}: DPOR must find exactly what naive finds"
        )
        ratio = naive.schedules_run / dpor.schedules_run
        assert ratio >= REDUCTION_FLOOR, (
            f"{lab_id}/{variant}: {ratio:.1f}x < {REDUCTION_FLOOR}x floor"
        )
        rows.append((f"{lab_id}/{variant}", naive.schedules_run,
                     dpor.schedules_run, ratio))
    lines = [
        "DPOR vs naive enumeration at equal bounds (identical findings)",
        f"floor: {REDUCTION_FLOOR:.0f}x fewer schedules",
        f"{'program':<24} {'naive':>8} {'dpor':>6} {'reduction':>10}",
    ]
    for name, n, d, r in rows:
        lines.append(f"{name:<24} {n:>8} {d:>6} {r:>9.1f}x")
    report("explorer_reduction", "\n".join(lines))


def test_naive_infeasible_lab7_completes_under_dpor(report):
    """The headline: exhaustive proof where enumeration cannot finish."""
    naive = explore(program("lab7", "broken"),
                    max_schedules=NAIVE_INFEASIBLE_BUDGET)
    assert naive.stop_reason != STOP_EXHAUSTED, (
        "lab7/broken should exceed the naive budget (it needs >1e6 schedules)"
    )
    dpor = explore(program("lab7", "broken"), max_schedules=BOUND, strategy="dpor")
    assert dpor.stop_reason == STOP_EXHAUSTED, "DPOR must exhaust the same instance outright"
    assert dpor.schedules_run < 100
    report(
        "explorer_feasibility",
        "Exhaustive exploration of lab7/broken (default size)\n"
        f"naive:  >{NAIVE_INFEASIBLE_BUDGET} schedules, gave up "
        f"({naive.stop_reason})\n"
        f"dpor:   {dpor.schedules_run} schedules, exhausted in "
        f"{dpor.elapsed_s * 1000:.0f} ms",
    )


def test_dpor_states_per_second(report):
    dpor = explore(program("lab7", "fixed"), max_schedules=BOUND, strategy="dpor")
    assert dpor.stop_reason == STOP_EXHAUSTED
    rate = dpor.states_explored / max(dpor.elapsed_s, 1e-9)
    assert rate >= STATES_PER_S_FLOOR, (
        f"{rate:.0f} states/s < {STATES_PER_S_FLOOR:.0f} floor"
    )
    report(
        "explorer_throughput",
        "DPOR replay throughput on lab7/fixed\n"
        f"{dpor.states_explored} scheduler steps over {dpor.schedules_run} "
        f"schedules in {dpor.elapsed_s * 1000:.0f} ms = {rate:,.0f} states/s",
    )


def test_parallel_driver_scaling(report):
    factory = program("lab7", "fixed")
    solo = explore(factory, max_schedules=BOUND, strategy="dpor")
    rows = []
    for partitions in (1, 2, 4):
        distributor = JobDistributor(
            Grid(ClusterSpec.small(segments=2, slaves=4, cores=2)), CallableBackend()
        )
        spec = ExploreJobSpec(partitions=partitions, seed_schedules=4,
                              wave_budget=BOUND)
        t0 = time.perf_counter()
        result = run_exploration(distributor, factory, spec)
        wall = time.perf_counter() - t0
        assert result.stop_reason == STOP_EXHAUSTED
        assert result.finding_set() == solo.finding_set()
        rows.append((partitions, result.schedules_run, wall))
    lines = [
        "Distributed DPOR driver on lab7/fixed (findings identical throughout)",
        f"{'partitions':>10} {'schedules':>10} {'wall ms':>8}",
    ]
    for partitions, n, wall in rows:
        lines.append(f"{partitions:>10} {n:>10} {wall * 1000:>7.0f}")
    report("explorer_scaling", "\n".join(lines))


# -- CLI ----------------------------------------------------------------------


def _ci_slice() -> int:
    """Fast equivalence gate for CI: every lab program, small sizes."""
    from repro.analysis.corpus import check_dynamic_corpus

    failures = 0
    for case, result, problems in check_dynamic_corpus("dpor"):
        for problem in problems:
            print(f"FAIL {case.lab_id}/{case.variant}: {problem}")
            failures += 1
    naive, dpor = _pair("lab6", "broken")
    if dpor.finding_set() != naive.finding_set():
        print("FAIL lab6/broken: DPOR and naive disagree on findings")
        failures += 1
    ratio = naive.schedules_run / dpor.schedules_run
    if ratio < REDUCTION_FLOOR:
        print(f"FAIL lab6/broken: reduction {ratio:.1f}x < {REDUCTION_FLOOR}x")
        failures += 1
    print(
        f"explorer ci slice: 15 programs equivalent, lab6 reduction "
        f"{naive.schedules_run}->{dpor.schedules_run} ({ratio:.1f}x), "
        f"{failures} failure(s)"
    )
    return 1 if failures else 0


def _full_table() -> int:
    print(f"{'program':<24} {'naive':>8} {'dpor':>6} {'reduction':>10} {'findings':>9}")
    for pid in program_ids():
        lab_id, variant = pid.split(":")
        if pid == "lab7:broken":
            naive = explore(program(lab_id, variant),
                            max_schedules=NAIVE_INFEASIBLE_BUDGET)
            dpor = explore(program(lab_id, variant), max_schedules=BOUND,
                           strategy="dpor")
            print(f"{pid:<24} {'>20000':>8} {dpor.schedules_run:>6} "
                  f"{'(naive gave up)':>10} {'same':>9}")
            continue
        naive, dpor = _pair(lab_id, variant)
        same = "same" if dpor.finding_set() == naive.finding_set() else "DIFFER"
        ratio = naive.schedules_run / dpor.schedules_run
        print(f"{pid:<24} {naive.schedules_run:>8} {dpor.schedules_run:>6} "
              f"{ratio:>9.1f}x {same:>9}")
    return 0


def main(argv: list | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ci", action="store_true",
                        help="fast DPOR-vs-naive equivalence slice (lint gate)")
    args = parser.parse_args(argv)
    return _ci_slice() if args.ci else _full_table()


if __name__ == "__main__":
    sys.exit(main())
