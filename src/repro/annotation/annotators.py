"""Simulated annotators and the two-annotator + adjudicator protocol.

Stands in for the professional annotation vendor (§3.3.2): each question
is answered independently by two annotators who read the ground-truth
answer through a per-question noise channel; any disagreement is resolved
by a third, more careful adjudicator.  The pool tracks the total number
of judgments so annotation *cost* is a measurable quantity the ablation
benches can compare against uniform sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.annotation.schema import QUESTIONS, TRUTH_TABLE, AnnotationResult
from repro.utils.rng import spawn_rng

__all__ = ["Annotator", "AnnotatorPool"]


@dataclass
class Annotator:
    """One annotator with an error rate (probability of flipping a label)."""

    annotator_id: str
    error_rate: float
    _rng: np.random.Generator = None  # type: ignore[assignment]

    def answer(self, truth: bool) -> bool:
        """Noisy reading of the ground-truth answer."""
        if self._rng.random() < self.error_rate:
            return not truth
        return truth


class AnnotatorPool:
    """Two-annotator + adjudicator labeling of knowledge candidates."""

    def __init__(
        self,
        error_rate: float = 0.06,
        adjudicator_error_rate: float = 0.02,
        seed: int = 0,
    ):
        rng = spawn_rng(seed, "annotators")
        self.annotators = [
            Annotator("ann-1", error_rate, spawn_rng(seed, "ann-1")),
            Annotator("ann-2", error_rate, spawn_rng(seed, "ann-2")),
        ]
        self.adjudicator = Annotator("adjudicator", adjudicator_error_rate,
                                     spawn_rng(seed, "adjudicator"))
        self._rng = rng
        self.total_judgments = 0
        self.total_adjudications = 0

    def annotate(self, candidate_id: str, quality: str) -> AnnotationResult:
        """Label one candidate given its latent quality class."""
        truth = TRUTH_TABLE[quality]
        result = AnnotationResult(candidate_id=candidate_id)
        for question in QUESTIONS:
            first = self.annotators[0].answer(truth[question])
            second = self.annotators[1].answer(truth[question])
            self.total_judgments += 2
            if first == second:
                result.answers[question] = first
            else:
                result.answers[question] = self.adjudicator.answer(truth[question])
                self.total_judgments += 1
                self.total_adjudications += 1
                result.needed_adjudication = True
        return result

    def annotate_batch(self, items: list[tuple[str, str]]) -> list[AnnotationResult]:
        """Label ``(candidate_id, quality)`` pairs."""
        return [self.annotate(candidate_id, quality) for candidate_id, quality in items]
