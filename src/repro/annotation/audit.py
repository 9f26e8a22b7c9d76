"""Internal annotation auditing (§3.3.2).

The paper audits a random 5% of annotations against careful internal
review and reports >90% accuracy.  Here the audit compares adjudicated
answers against the oracle truth table, reproducing that check.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.annotation.schema import QUESTIONS, TRUTH_TABLE, AnnotationResult
from repro.utils.rng import spawn_rng

__all__ = ["AuditReport", "audit_annotations"]


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one audit pass."""

    sampled: int
    questions_checked: int
    correct: int

    @property
    def accuracy(self) -> float:
        """Fraction of audited judgments matching careful review."""
        if self.questions_checked == 0:
            return 1.0
        return self.correct / self.questions_checked


def audit_annotations(
    results: list[AnnotationResult],
    qualities: dict[str, str],
    sample_rate: float = 0.05,
    seed: int = 0,
) -> AuditReport:
    """Audit a random sample of annotations against ground truth.

    ``qualities`` maps candidate_id → latent quality class (the audit's
    "careful internal review" has full access to the truth).
    """
    rng = spawn_rng(seed, "audit")
    n_sample = max(1, int(len(results) * sample_rate)) if results else 0
    if n_sample == 0:
        return AuditReport(sampled=0, questions_checked=0, correct=0)
    indices = rng.choice(len(results), size=n_sample, replace=False)
    checked, correct = 0, 0
    for index in indices:
        result = results[int(index)]
        truth = TRUTH_TABLE[qualities[result.candidate_id]]
        for question in QUESTIONS:
            checked += 1
            if result.answers.get(question) == truth[question]:
                correct += 1
    return AuditReport(sampled=n_sample, questions_checked=checked, correct=correct)
