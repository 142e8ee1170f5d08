"""Lab grading: synthetic students, real lab code.

For every (student, lab) pair:

1. The IRT rule (:meth:`Student.attempts_correct_submission`) decides
   whether the student's submission is correct, with per-lab difficulty
   calibrated from the paper's Table-1 passing rate.
2. The grader *actually executes* the corresponding lab variant:

   * correct submission → the lab's ``fixed`` variant, once; it must
     pass (our reference solutions are verified by the test suite);
   * incorrect submission → the ``broken`` variant through the
     instructor's grading harness — several scheduling seeds (plus
     bounded exploration for the deadlock lab) — which exposes the flaw.

3. The observed behaviour maps to a numeric score: passing behaviour
   scores 70–100, exposed defects 30–69 (style/partial credit noise).
   Pass = score ≥ 70, the paper's criterion.

Alongside the numeric score, the grader attaches *static feedback*: the
:mod:`repro.analysis` diagnostics for the fixture matching the student's
submission (the broken fixture for an incorrect submission, the fixed
one — clean by the corpus contract — for a correct one).  This is the
concept-tagged "here is what the analyzer would have told you before
you submitted" report the portal's lint endpoint gives live students.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._errors import GradingError
from repro.analysis import analyze_file
from repro.analysis.corpus import corpus_case, fixture_path
from repro.desim.rng import substream
from repro.education.students import Cohort, Student, difficulty_for_rate
from repro.labs import get_lab
from repro.labs.lab6_philosophers import find_deadlock_witness

__all__ = ["PAPER_LAB_RATES", "LabGrader", "GradeBook"]

#: Table 1 of the paper: assignment → reported passing rate.
PAPER_LAB_RATES: dict[str, float] = {
    "lab1": 0.50,  # Multicore Lab 1 — Synchronization with Java
    "lab2": 0.67,  # Multicore Lab 2 — Spin Lock and Cache Coherence
    "lab3": 0.39,  # Multicore Lab 3 — UMA and NUMA Access
    "lab4": 0.44,  # Lab for Process and Thread Management
    "lab5": 0.61,  # Lab for Basic Synchronization Methods
    "lab6": 0.50,  # Lab for Deadlock
    "lab7": 0.56,  # Programming Assignment 3 — Bounded Buffer
}

_GRADING_SEEDS = (1, 3, 5)


@dataclass
class GradeBook:
    """All lab scores for a cohort: ``scores[lab_id][student_id]``."""

    scores: dict[str, dict[str, float]] = field(default_factory=dict)
    #: ``feedback[lab_id][student_id]`` → concept-tagged analyzer lines.
    feedback: dict[str, dict[str, tuple]] = field(default_factory=dict)

    def feedback_for(self, lab_id: str, student_id: str) -> tuple:
        """Static-analysis feedback lines for one grading event."""
        return self.feedback.get(lab_id, {}).get(student_id, ())

    def passing_rate(self, lab_id: str, threshold: float = 70.0) -> float:
        """Fraction of students scoring at least ``threshold``."""
        lab_scores = self.scores.get(lab_id)
        if not lab_scores:
            raise GradingError(f"no scores recorded for {lab_id!r}")
        values = np.array(list(lab_scores.values()))
        return float((values >= threshold).mean())

    def student_mean(self, student_id: str) -> float:
        """Mean lab score of one student across all graded labs."""
        values = [s[student_id] for s in self.scores.values() if student_id in s]
        if not values:
            raise GradingError(f"no scores recorded for student {student_id!r}")
        return float(np.mean(values))


class LabGrader:
    """Grades a cohort through the real labs."""

    def __init__(self, seed: int = 2012, lab_rates: dict[str, float] | None = None) -> None:
        self.seed = seed
        self.lab_rates = dict(lab_rates or PAPER_LAB_RATES)
        self.difficulties = {
            lab_id: difficulty_for_rate(rate) for lab_id, rate in self.lab_rates.items()
        }
        # The harness is deterministic per (lab, correctness), so cache it —
        # grading 19 students must not re-explore the philosophers 19 times.
        self._behaviour_cache: dict[tuple[str, bool], bool] = {}
        # Likewise the analyzer: one run per (lab, correctness) fixture.
        self._feedback_cache: dict[tuple[str, bool], tuple] = {}

    # -- single grading events ------------------------------------------------
    def behaviour_passes(self, lab_id: str, correct_submission: bool) -> bool:
        """Run the actual lab code and report whether behaviour is correct."""
        key = (lab_id, correct_submission)
        if key in self._behaviour_cache:
            return self._behaviour_cache[key]
        result = self._behaviour_passes_uncached(lab_id, correct_submission)
        self._behaviour_cache[key] = result
        return result

    def _behaviour_passes_uncached(self, lab_id: str, correct_submission: bool) -> bool:
        lab = get_lab(lab_id)
        if correct_submission:
            return lab.run("fixed", seed=_GRADING_SEEDS[0]).passed
        # Instructor's harness: multiple seeds; a random witness hunt for
        # lab 6, whose deadlock needs a rarer scheduling pattern.
        if lab_id == "lab6":
            return find_deadlock_witness() is None  # a found deadlock == defect exposed
        return all(lab.run("broken", seed=s).passed for s in _GRADING_SEEDS)

    def static_feedback(self, lab_id: str, correct_submission: bool) -> tuple:
        """Analyzer feedback lines for the fixture matching a submission.

        Empty for labs without a corpus fixture and (by the corpus
        zero-false-positive contract) for every correct submission.
        """
        key = (lab_id, correct_submission)
        if key not in self._feedback_cache:
            case = corpus_case(lab_id, "fixed" if correct_submission else "broken")
            lines: tuple = ()
            if case is not None:
                report = analyze_file(fixture_path(case))
                lines = tuple(
                    f"{d.rule_id} [{d.concept}] line {d.line}: {d.message}"
                    for d in report.diagnostics
                )
            self._feedback_cache[key] = lines
        return self._feedback_cache[key]

    def _grade_event(
        self, student: Student, lab_id: str, rng: np.random.Generator
    ) -> tuple[float, bool]:
        """Score one event; also reports whether the submission was correct."""
        difficulty = self.difficulties[lab_id]
        correct = student.attempts_correct_submission(difficulty, rng)
        behaved = self.behaviour_passes(lab_id, correct)
        if behaved:
            # Correct behaviour: 70..100, better students lose fewer style points.
            base = 85.0 + 6.0 * student.skill
            score = base + rng.normal(0.0, 4.0)
            return float(np.clip(score, 70.0, 100.0)), correct
        # Defect exposed by the harness: partial credit below the bar.
        base = 55.0 + 5.0 * student.skill
        score = base + rng.normal(0.0, 6.0)
        return float(np.clip(score, 25.0, 69.0)), correct

    # -- cohort-level ----------------------------------------------------------
    def grade_cohort(self, cohort: Cohort) -> GradeBook:
        """Grade every student on every lab; fills ``student.lab_scores``.

        Each event's static-analysis feedback (the analyzer's verdict on
        the fixture matching the submission) lands in
        :attr:`GradeBook.feedback`.
        """
        book = GradeBook()
        for lab_id in sorted(self.lab_rates):
            lab_scores: dict[str, float] = {}
            lab_feedback: dict[str, tuple] = {}
            for student in cohort:
                rng = substream(self.seed, f"grade:{lab_id}:{student.student_id}")
                score, correct = self._grade_event(student, lab_id, rng)
                lab_scores[student.student_id] = score
                lab_feedback[student.student_id] = self.static_feedback(lab_id, correct)
                student.lab_scores[lab_id] = score
            book.scores[lab_id] = lab_scores
            book.feedback[lab_id] = lab_feedback
        return book
