"""Knowledge data model: candidates (pre-refinement) and triples (KG edges)."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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


@dataclass(frozen=True, slots=True, init=False)
class KnowledgeTriple:
    """A refined KG edge ``(head, relation, tail)`` (§3.1).

    ``head`` is the behavior's surface form (query text, or the joined
    co-buy titles); ``support`` counts how many candidates collapsed into
    this edge.  Every read of the graph makes one per edge, so the record
    is slotted (no ``__dict__``) and its ``__init__`` is written by hand
    (``init=False``): the frozen dataclass's own calls
    ``object.__setattr__`` once per field, while this one writes each
    field through its slot's setter, bound once at import — 507 against
    912 ns a record (EXPERIMENTS.md, "Records at slot speed").  The
    dataclass still makes ``__eq__``, ``__hash__`` (without
    ``head_ids``), ``__repr__`` and the ``__setattr__`` that raises
    ``FrozenInstanceError``; ``tests/core/test_records.py`` diffs the
    record against the frozen dataclass it stands in for.
    """

    head: str
    relation: Relation
    tail: str
    domain: str
    behavior: str
    plausibility: float
    typicality: float
    support: int = 1
    head_ids: tuple[str, ...] = field(default=(), hash=False)

    def __init__(self, head: str, relation: Relation, tail: str, domain: str,
                 behavior: str, plausibility: float, typicality: float,
                 support: int = 1, head_ids: tuple[str, ...] = ()) -> None:
        _set_head(self, head)
        _set_relation(self, relation)
        _set_tail(self, tail)
        _set_domain(self, domain)
        _set_behavior(self, behavior)
        _set_plausibility(self, plausibility)
        _set_typicality(self, typicality)
        _set_support(self, support)
        _set_head_ids(self, head_ids)

    @property
    def key(self) -> tuple[str, str, str]:
        """Identity for deduplication."""
        return (self.head, self.relation.value, self.tail)


(_set_head, _set_relation, _set_tail, _set_domain, _set_behavior,
 _set_plausibility, _set_typicality, _set_support, _set_head_ids) = (
    KnowledgeTriple.__dict__[f.name].__set__ for f in fields(KnowledgeTriple))
