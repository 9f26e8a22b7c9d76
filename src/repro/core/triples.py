"""Knowledge data model: candidates (pre-refinement) and triples (KG edges)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.relations import Relation
from repro.llm.interface import GenerationTruth

__all__ = ["BehaviorSample", "KnowledgeCandidate", "KnowledgeTriple"]


@dataclass(frozen=True)
class BehaviorSample:
    """One sampled user behavior selected for knowledge generation (§3.2.1).

    For co-buy: ``product_ids`` has two entries and ``query_id`` is None.
    For search-buy: one product and the query.  ``intent_id`` is simulator
    ground truth carried for the oracle; the pipeline never branches on it.
    """

    sample_id: str
    behavior: str  # "co-buy" | "search-buy"
    domain: str
    product_ids: tuple[str, ...]
    query_id: str | None
    head_text: str
    intent_id: str | None
    weight: float = 1.0


@dataclass
class KnowledgeCandidate:
    """A raw LLM generation attached to its behavior, before refinement."""

    candidate_id: str
    sample: BehaviorSample
    text: str
    relation: Relation | None = None
    tail: str | None = None
    truth: GenerationTruth | None = None
    # Populated by the critic stage.
    plausibility_score: float | None = field(default=None, init=False)
    typicality_score: float | None = field(default=None, init=False)

    @property
    def parsed(self) -> bool:
        return self.relation is not None and self.tail is not None

    def to_triple(self) -> "KnowledgeTriple":
        """The KG edge (§3.1) a refined candidate becomes; an unscored
        one scores 0, and the behavior's product ids are the edge's
        provenance."""
        return KnowledgeTriple(
            head=self.sample.head_text,
            relation=self.relation,
            tail=self.tail,
            domain=self.sample.domain,
            behavior=self.sample.behavior,
            plausibility=self.plausibility_score or 0.0,
            typicality=self.typicality_score or 0.0,
            support=1,
            head_ids=self.sample.product_ids,
        )


class KnowledgeTriple(NamedTuple):
    """A refined KG edge ``(head, relation, tail)`` (§3.1).

    ``head`` is the behavior's surface form (query text, or the joined
    co-buy titles); ``support`` counts how many candidates collapsed into
    this edge.  Every read of the graph makes one per edge, so the record
    is a named tuple: the graph builds each one in C with
    ``tuple.__new__`` over its columns, and a keyword construction runs
    no Python ``__init__`` (EXPERIMENTS.md, "Records built in C").  A
    field is read-only (assignment raises ``AttributeError``), ``==`` and
    ``hash`` take every field, ``head_ids`` included, and a triple is a
    tuple: it iterates its fields and equals a plain tuple of them.
    """

    head: str
    relation: Relation
    tail: str
    domain: str
    behavior: str
    plausibility: float
    typicality: float
    support: int = 1
    head_ids: tuple[str, ...] = ()

    @property
    def key(self) -> tuple[str, str, str]:
        """Identity for deduplication."""
        return (self.head, self.relation.value, self.tail)
