"""The 5-question annotation schema (§3.3.2, Appendix B).

The paper decomposes plausibility/typicality into five yes/no questions
to reduce annotator cognitive load and disagreement.  This module fixes
the question list and the ground-truth answer key per latent quality
class — the oracle simulated annotators read through their noise model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["QUESTIONS", "TRUTH_TABLE", "AnnotationResult"]

# Appendix B, in order.
QUESTIONS: tuple[str, ...] = (
    "complete",      # Is the explanation a complete sentence?
    "relevant",      # Is the explanation relevant?
    "informative",   # Is the explanation informative?
    "plausible",     # Is the explanation plausible?
    "typical",       # Is the explanation typical?
)

# Latent quality class → ground-truth yes/no per question.
# The classes are the teacher's generation modes (see llm.teacher):
#   typical      — the behavior's true intent, well verbalized
#   plausible    — true of the product but not this behavior's reason
#   one_sided    — explains one co-bought product, implausible for the pair
#   generic      — "because they like them" style, uninformative
#   paraphrase   — echoes the title/query, uninformative
#   implausible  — fluent but wrong-domain knowledge
#   incomplete   — truncated generation
TRUTH_TABLE: dict[str, dict[str, bool]] = {
    "typical": {"complete": True, "relevant": True, "informative": True,
                "plausible": True, "typical": True},
    "plausible": {"complete": True, "relevant": True, "informative": True,
                  "plausible": True, "typical": False},
    "one_sided": {"complete": True, "relevant": True, "informative": True,
                  "plausible": False, "typical": False},
    "generic": {"complete": True, "relevant": True, "informative": False,
                "plausible": True, "typical": False},
    "paraphrase": {"complete": True, "relevant": True, "informative": False,
                   "plausible": True, "typical": False},
    "implausible": {"complete": True, "relevant": False, "informative": True,
                    "plausible": False, "typical": False},
    "incomplete": {"complete": False, "relevant": False, "informative": False,
                   "plausible": False, "typical": False},
}


@dataclass
class AnnotationResult:
    """Adjudicated answers for one knowledge candidate."""

    candidate_id: str
    answers: dict[str, bool] = field(default_factory=dict, init=False)
    needed_adjudication: bool = field(default=False, init=False)

    @property
    def plausible(self) -> bool:
        """The adjudicated plausibility judgment."""
        return self.answers.get("plausible", False)

    @property
    def typical(self) -> bool:
        # Typicality presumes plausibility (the paper's two-step metric).
        return self.answers.get("typical", False) and self.plausible
