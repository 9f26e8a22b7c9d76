"""Synthetic search queries and the query-specificity service.

Two query populations mirror §3.2.1:

* **broad** queries verbalize an *intent* with intent-side vocabulary
  ("winter camping essentials", "gifts for cat owners") and match many
  product types — these are the valuable, ambiguous ones COSMO targets;
* **specific** queries name a product type directly ("waterproof hiking
  boots") and match one type.

The :class:`SpecificityService` stands in for the in-house Amazon Search
service the paper uses to score query breadth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.catalog.domains import all_domains
from repro.catalog.products import ProductCatalog
from repro.catalog.vocab import MODIFIERS
from repro.core.relations import TailType
from repro.utils.rng import spawn_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.behavior.intents import IntentSpace

__all__ = [
    "Query",
    "QueryLog",
    "SpecificityService",
    "build_queries",
    "render_broad_query",
]

# Broad-query templates per tail type; "{}" is the intent tail.
_BROAD_TEMPLATES: dict[TailType, tuple[str, ...]] = {
    TailType.ACTIVITY: ("{}", "{} essentials", "things for {}", "{} gear"),
    TailType.FUNCTION: ("something to {}", "help to {}"),
    TailType.AUDIENCE: ("gifts for {}", "ideas for {}"),
    TailType.LOCATION: ("{} must haves", "stuff for the {}"),
    TailType.TIME: ("{} shopping", "ready for {}"),
    TailType.INTEREST: ("{} ideas", "{} supplies"),
    TailType.BODY_PART: ("care for {}",),
    TailType.COMPLEMENT: ("{}",),
    TailType.CONCEPT: ("{}",),
}


def render_broad_query(tail_type: TailType, tail: str, rng: np.random.Generator) -> str:
    """Verbalize an intent tail as a broad query, with random phrasing."""
    templates = _BROAD_TEMPLATES[tail_type]
    return templates[int(rng.integers(len(templates)))].format(tail)


@dataclass(frozen=True)
class Query:
    """A search query with its ground-truth provenance.

    Broad queries carry the intent they verbalize (``intent_id``);
    specific queries carry the ``product_type`` they name.
    """

    query_id: str
    text: str
    domain: str
    breadth: str  # "broad" | "specific"
    intent_id: str | None
    product_type: str | None
    popularity: float


class QueryLog:
    """Indexed access to the generated query population."""

    def __init__(self, queries: list[Query]):
        self._queries = {q.query_id: q for q in queries}
        self._by_domain: dict[str, list[Query]] = {}
        for query in queries:
            self._by_domain.setdefault(query.domain, []).append(query)

    def __len__(self) -> int:
        return len(self._queries)

    def get(self, query_id: str) -> Query:
        return self._queries[query_id]

    def all(self) -> list[Query]:
        return list(self._queries.values())

    def for_domain(self, domain: str) -> list[Query]:
        return list(self._by_domain.get(domain, []))

    def broad(self) -> list[Query]:
        return [q for q in self._queries.values() if q.breadth == "broad"]


def build_queries(
    intent_space: "IntentSpace",
    catalog: ProductCatalog,
    broad_per_domain: int = 30,
    specific_per_domain: int = 30,
    seed: int = 0,
) -> QueryLog:
    """Generate broad and specific queries for every domain."""
    rng = spawn_rng(seed, "queries")
    queries: list[Query] = []
    for domain_index, domain in enumerate(all_domains()):
        intents = intent_space.for_domain(domain.name)
        counter = 0
        for _ in range(broad_per_domain):
            intent = intents[int(rng.integers(len(intents)))]
            templates = _BROAD_TEMPLATES[intent.tail_type]
            template = templates[int(rng.integers(len(templates)))]
            queries.append(
                Query(
                    query_id=f"q{domain_index:02d}-{counter:04d}",
                    text=template.format(intent.tail),
                    domain=domain.name,
                    breadth="broad",
                    intent_id=intent.intent_id,
                    product_type=None,
                    popularity=float(rng.pareto(1.2) + 0.1),
                )
            )
            counter += 1
        types = catalog.product_types(domain.name)
        for _ in range(specific_per_domain):
            ptype = types[int(rng.integers(len(types)))]
            if rng.random() < 0.5:
                modifier = MODIFIERS[int(rng.integers(len(MODIFIERS)))]
                text = f"{modifier} {ptype}"
            else:
                text = ptype
            queries.append(
                Query(
                    query_id=f"q{domain_index:02d}-{counter:04d}",
                    text=text,
                    domain=domain.name,
                    breadth="specific",
                    intent_id=None,
                    product_type=ptype,
                    popularity=float(rng.pareto(1.2) + 0.1),
                )
            )
            counter += 1
    return QueryLog(queries)


class SpecificityService:
    """Scores how specific a query is (stand-in for the in-house service).

    Specificity is the reciprocal of how many distinct product types the
    query's matching products span: a query matching a single type scores
    1.0; one whose intent is served by many types scores near 0.
    """

    def __init__(self, catalog: ProductCatalog):
        self._catalog = catalog

    def matching_types(self, query: Query) -> set[str]:
        """Distinct product types matched by the query."""
        if query.breadth == "specific" and query.product_type is not None:
            return {query.product_type}
        if query.intent_id is not None:
            return {
                product.product_type
                for product in self._catalog.serving_intent(query.intent_id)
            }
        return set()

    def score(self, query: Query) -> float:
        """Specificity in (0, 1]; higher means narrower."""
        n_types = len(self.matching_types(query))
        if n_types == 0:
            # Unmatchable queries are treated as maximally broad.
            return 0.0
        return 1.0 / n_types
