"""The lab fixture corpus: expected diagnostics per student submission.

Maps each fixture in ``repro/labs/fixtures`` to the exact set of rule
ids the analyzer must emit for it.  ``broken`` fixtures carry the bug
their lab teaches; every ``fixed`` fixture must come back **clean** —
the zero-false-positive bar that makes the pre-submit lint trustworthy
enough to show students.

:func:`check_corpus` is the regression entry point used by the test
suite, the CLI (``python -m repro.analysis --corpus``) and CI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.analysis.analyzer import analyze_file
from repro.analysis.model import AnalysisReport

__all__ = [
    "FixtureCase",
    "CORPUS",
    "fixtures_dir",
    "fixture_path",
    "check_corpus",
    "DynamicCase",
    "DYNAMIC_CORPUS",
    "check_dynamic_corpus",
]


@dataclass(frozen=True)
class FixtureCase:
    """One corpus entry: a fixture file and what the analyzer must say."""

    lab_id: str
    variant: str
    filename: str
    expected_rules: frozenset
    expected_symbols: frozenset = frozenset()
    """Symbols at least one expected diagnostic must name (when non-empty)."""


CORPUS: tuple = (
    FixtureCase("lab1", "broken", "lab1_broken.py",
                frozenset({"ANL-RC001"}), frozenset({"counter"})),
    FixtureCase("lab1", "fixed", "lab1_fixed.py", frozenset()),
    FixtureCase("lab2", "broken", "lab2_broken.py",
                frozenset({"ANL-RC001"}), frozenset({"shared_data"})),
    FixtureCase("lab2", "fixed", "lab2_fixed.py", frozenset()),
    FixtureCase("lab3", "broken", "lab3_broken.py", frozenset()),
    FixtureCase("lab3", "fixed", "lab3_fixed.py", frozenset()),
    FixtureCase("lab4", "broken", "lab4_broken.py",
                frozenset({"ANL-RC001"}), frozenset({"numbers"})),
    FixtureCase("lab4", "fixed", "lab4_fixed.py", frozenset()),
    FixtureCase("lab5", "broken", "lab5_broken.py",
                frozenset({"ANL-RC001"}), frozenset({"balance"})),
    FixtureCase("lab5", "fixed", "lab5_fixed.py", frozenset()),
    FixtureCase("lab6", "broken", "lab6_broken.py",
                frozenset({"ANL-DL002"}), frozenset({"forks"})),
    FixtureCase("lab6", "fixed", "lab6_fixed.py", frozenset()),
    FixtureCase("lab7", "broken", "lab7_broken.py",
                frozenset({"ANL-CV001"}), frozenset({"not_empty"})),
    FixtureCase("lab7", "fixed", "lab7_fixed.py", frozenset()),
)


def fixtures_dir() -> str:
    """Absolute path of ``repro/labs/fixtures``."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(here), "labs", "fixtures")


def fixture_path(case: FixtureCase) -> str:
    return os.path.join(fixtures_dir(), case.filename)


def corpus_case(lab_id: str, variant: str) -> FixtureCase | None:
    for case in CORPUS:
        if case.lab_id == lab_id and case.variant == variant:
            return case
    return None


def check_corpus() -> list:
    """Analyze every fixture; returns ``[(case, report, problems)]``.

    ``problems`` is a list of human-readable mismatch strings — empty
    when the analyzer said exactly what the corpus expects.
    """
    results = []
    for case in CORPUS:
        report: AnalysisReport = analyze_file(fixture_path(case))
        problems: list = []
        if report.parse_error is not None:
            problems.append(f"parse error: {report.parse_error}")
        got = frozenset(report.rule_ids())
        if got != case.expected_rules:
            missing = sorted(case.expected_rules - got)
            extra = sorted(got - case.expected_rules)
            if missing:
                problems.append(f"missing expected rule(s): {', '.join(missing)}")
            if extra:
                problems.append(f"unexpected rule(s): {', '.join(extra)}")
        if case.expected_symbols:
            symbols = {d.symbol for d in report.diagnostics}
            if not case.expected_symbols & symbols:
                problems.append(
                    f"no diagnostic names any of {sorted(case.expected_symbols)} "
                    f"(got symbols {sorted(symbols)})"
                )
        results.append((case, report, problems))
    return results


# ---------------------------------------------------------------------------
# Dynamic corpus: what systematic exploration must *prove* per lab
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicCase:
    """One exploration entry: a lab program and the finding kinds it must show.

    Complements the static corpus above: where the analyzer predicts a
    bug from source shape, exploration *witnesses* it (or exhaustively
    proves its absence).  ``sizes`` keeps the instances small enough
    that even the naive strategy stays test-suite-fast, so the same
    cases back the DPOR-vs-naive equivalence checks.
    """

    lab_id: str
    variant: str
    expected_kinds: frozenset
    sizes: tuple = ()
    """``(key, value)`` pairs forwarded to the program builder."""


DYNAMIC_CORPUS: tuple = (
    DynamicCase("lab1", "broken", frozenset({"violation", "race"})),
    DynamicCase("lab1", "fixed", frozenset()),
    DynamicCase("lab2", "broken", frozenset({"violation", "race"})),
    DynamicCase("lab2", "fixed", frozenset()),
    # lab 3's "broken" submission is broken only in the NUMA-locality
    # sense — exploration must prove both variants schedule-clean.
    DynamicCase("lab3", "broken", frozenset(), (("rounds", 1),)),
    DynamicCase("lab3", "fixed", frozenset(), (("rounds", 1),)),
    DynamicCase("lab4", "broken", frozenset({"violation", "race"})),
    DynamicCase("lab4", "fixed", frozenset()),
    DynamicCase("lab5", "broken", frozenset({"violation", "race"})),
    DynamicCase("lab5", "fixed", frozenset()),
    DynamicCase("lab6", "broken", frozenset({"deadlock"})),
    DynamicCase("lab6", "fixed", frozenset()),
    # at items=1 the broken queue's race is visible but the bounded-spin
    # give-up hides the lost item, so only the race is guaranteed.
    DynamicCase("lab7", "broken", frozenset({"race"}), (("items", 1),)),
    DynamicCase("lab7", "fixed", frozenset(), (("items", 1),)),
    DynamicCase("lab7", "fixed_semaphore", frozenset(), (("items", 1),)),
)


def check_dynamic_corpus(algorithm: str = "dpor", max_schedules: int = 100_000) -> list:
    """Explore every dynamic case; returns ``[(case, result, problems)]``.

    ``problems`` is empty when exploration exhausted the schedule space
    and witnessed exactly the expected finding kinds.
    """
    from repro.interleave.explorer import STOP_EXHAUSTED, explore
    from repro.labs.explore import program

    strategy = "dpor" if algorithm == "dpor" else "dfs"
    results = []
    for case in DYNAMIC_CORPUS:
        factory = program(case.lab_id, case.variant, **dict(case.sizes))
        result = explore(factory, max_schedules=max_schedules, strategy=strategy)
        problems: list = []
        if result.stop_reason != STOP_EXHAUSTED:
            problems.append(
                f"exploration stopped early ({result.stop_reason}) after "
                f"{result.schedules_run} schedule(s)"
            )
        got = frozenset(kind for kind, _ in result.finding_set())
        if got != case.expected_kinds:
            missing = sorted(case.expected_kinds - got)
            extra = sorted(got - case.expected_kinds)
            if missing:
                problems.append(f"missing expected finding kind(s): {', '.join(missing)}")
            if extra:
                problems.append(f"unexpected finding kind(s): {', '.join(extra)}")
        results.append((case, result, problems))
    return results
