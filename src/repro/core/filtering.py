"""Knowledge refinement: coarse-grained + similarity filtering (§3.3.1).

Four stages, each reported separately so the filtering ablation bench can
toggle them:

1. **completeness** — unparseable generations, fragments without terminal
   punctuation, and high-perplexity sentences (n-gram LM, the GPT-2
   stand-in) are dropped;
2. **context-overlap** — tails that (near-)duplicate the query, product
   type or title (normalized edit distance / containment) are dropped —
   the "Apple watch is a watch" paraphrases;
3. **generic-tail** — tails co-occurring with many distinct heads at high
   head-entropy are generic ("used for the same reason") and dropped;
4. **similarity** — embedding-cosine between the tail and its behavior
   context above threshold means the tail is a syntactic transformation
   of the context (Eq. 1) and is dropped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.relations import RELATION_SPECS
from repro.core.triples import KnowledgeCandidate
from repro.embeddings.encoder import TextEncoder
from repro.llm.ngram import NGramLanguageModel
from repro.utils.textproc import (
    entropy,
    normalized_edit_distance,
    sentence_split,
    tokenize_words,
)

__all__ = ["FilterConfig", "FilterReport", "KnowledgeFilter", "build_reference_lm"]


# §3.3.1's thresholds, one per refinement stage.
MAX_PERPLEXITY = 60.0
MAX_CONTEXT_EDIT_SIMILARITY = 0.35      # min normalized edit distance
GENERIC_MIN_HEADS = 8
GENERIC_MIN_ENTROPY = 1.8
MAX_CONTEXT_COSINE = 0.85


@dataclass(frozen=True)
class FilterConfig:
    """Which of the four refinement stages run (the filtering ablation)."""

    enable_completeness: bool = True
    enable_context_overlap: bool = True
    enable_generic: bool = True
    enable_similarity: bool = True


@dataclass
class FilterReport:
    """Per-stage drop accounting."""

    input_count: int = 0
    dropped: Counter = field(default_factory=Counter, init=False)
    kept: int = field(default=0, init=False)

    def drop(self, stage: str) -> None:
        self.dropped[stage] += 1


def build_reference_lm() -> NGramLanguageModel:
    """Train the completeness LM on well-formed sentences.

    GPT-2 in the paper knows general English; our stand-in gets the
    equivalent prior by fitting on every relation template instantiated
    with the full domain vocabulary (all well-formed phrases of the
    world).  Truncated or
    scrambled candidates still score high perplexity because their
    *transitions* are unseen, which is the property the filter needs.
    """
    from repro.catalog.domains import all_domains

    corpus = [
        f"{spec.template.format(spec.example)}."
        for spec in RELATION_SPECS.values()
    ]
    for domain in all_domains():
        for spec in RELATION_SPECS.values():
            for phrase in domain.tail_phrases(spec.tail_type):
                corpus.append(f"{spec.template.format(phrase)}.")
    return NGramLanguageModel().fit(corpus)


class KnowledgeFilter:
    """Applies the §3.3.1 refinement cascade to knowledge candidates."""

    def __init__(
        self,
        encoder: TextEncoder,
        config: FilterConfig | None = None,
    ):
        self.encoder = encoder
        self.config = config or FilterConfig()
        self.reference_lm = build_reference_lm()

    # -- stage predicates ------------------------------------------------
    def _is_complete(self, candidate: KnowledgeCandidate) -> bool:
        if not candidate.parsed:
            return False
        sentences = sentence_split(candidate.text)
        if not sentences:
            return False
        first = sentences[0]
        if not first.endswith((".", "!", "?")):
            return False
        return self.reference_lm.perplexity(first) <= MAX_PERPLEXITY

    def _overlaps_context(self, candidate: KnowledgeCandidate) -> bool:
        """Paraphrase test: does the tail merely restate the *product*?

        Tails echoing the product title/type ("Apple watch is a type of
        watch") are paraphrases and dropped.  Tails overlapping the
        *query* are NOT dropped — restating the query's intent is exactly
        the knowledge that bridges the semantic gap; only a tail that is
        near-identical to the whole query counts as a paraphrase.
        """
        tail = (candidate.tail or "").lower()
        tail_tokens = set(tokenize_words(tail))
        parts = candidate.sample.head_text.split(" ||| ")
        if candidate.sample.behavior == "search-buy":
            query_parts, product_parts = parts[:1], parts[1:]
        else:
            query_parts, product_parts = [], parts
        for context in product_parts:
            if normalized_edit_distance(tail, context.lower()) < MAX_CONTEXT_EDIT_SIMILARITY:
                return True
            if tail_tokens and tail_tokens <= set(tokenize_words(context)):
                return True
        for context in query_parts:
            if tail_tokens and tail_tokens == set(tokenize_words(context)):
                return True
        return False

    def _generic_tails(self, candidates: list[KnowledgeCandidate]) -> set[str]:
        """Tails whose head distribution is broad and high-entropy."""
        tail_heads: dict[str, Counter[str]] = {}
        for candidate in candidates:
            if candidate.tail is None:
                continue
            tail_heads.setdefault(candidate.tail, Counter())[candidate.sample.head_text] += 1
        generic: set[str] = set()
        for tail, heads in tail_heads.items():
            if (
                len(heads) >= GENERIC_MIN_HEADS
                and entropy(heads.values()) >= GENERIC_MIN_ENTROPY
            ):
                generic.add(tail)
        return generic

    def _too_similar(self, candidate: KnowledgeCandidate) -> bool:
        tail = candidate.tail or ""
        for context in candidate.sample.head_text.split(" ||| "):
            if float(self.encoder.encode(tail) @ self.encoder.encode(context)) > MAX_CONTEXT_COSINE:
                return True
        return False

    # -- the cascade -------------------------------------------------------
    def apply(
        self, candidates: list[KnowledgeCandidate]
    ) -> tuple[list[KnowledgeCandidate], FilterReport]:
        """Run all enabled stages; returns (survivors, report)."""
        report = FilterReport(input_count=len(candidates))
        generic_tails = self._generic_tails(candidates) if self.config.enable_generic else set()
        survivors: list[KnowledgeCandidate] = []
        for candidate in candidates:
            if self.config.enable_completeness and not self._is_complete(candidate):
                report.drop("completeness")
                continue
            if self.config.enable_context_overlap and self._overlaps_context(candidate):
                report.drop("context_overlap")
                continue
            if self.config.enable_generic and candidate.tail in generic_tails:
                report.drop("generic")
                continue
            if self.config.enable_similarity and self._too_similar(candidate):
                report.drop("similarity")
                continue
            survivors.append(candidate)
        report.kept = len(survivors)
        return survivors, report
