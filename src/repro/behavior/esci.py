"""ESCI-style search-relevance dataset generator (§4.1.1, Table 5).

Reproduces the KDD Cup 2022 Shopping Queries task shape: each example is
a (query, product) pair labeled **Exact / Substitute / Complement /
Irrelevant**, with the realistic Exact-heavy class imbalance.  Labels are
derived from world ground truth:

* *Exact* — the product serves the query's intent (broad) or is of the
  named type (specific);
* *Substitute* — a different-type product serving a sibling/similar
  intent;
* *Complement* — a product sharing one of an exact product's *other*
  intents (the "bought together" relation);
* *Irrelevant* — a random product from another domain.

Multiple locales (KDD Cup public, US, CA, UK, IN) differ in size and in
surface vocabulary via locale word-substitution maps, mimicking the
language-habit drift §4.1.4 studies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.behavior.world import World
from repro.catalog.products import Product
from repro.catalog.queries import Query
from repro.utils.rng import spawn_rng

__all__ = ["ESCILabel", "ESCIExample", "ESCIDataset", "LOCALES", "generate_esci"]

ESCI_LABELS: tuple[str, ...] = ("Exact", "Substitute", "Complement", "Irrelevant")

# Target class mix (Exact-heavy, as in the real ESCI data / Table 5's
# "# Exact Pairs" dominating the totals).
_LABEL_WEIGHTS = {"Exact": 0.62, "Substitute": 0.20, "Complement": 0.08, "Irrelevant": 0.10}

# Locale word drift: applied to query and title text.
_LOCALE_SUBSTITUTIONS: dict[str, dict[str, str]] = {
    "KDD Cup": {},
    "US": {},
    "CA": {"waterproof": "water resistant", "holiday": "winter holiday"},
    "UK": {
        "diaper": "nappy", "stroller": "pushchair", "flashlight": "torch",
        "waterproof": "showerproof", "vacation": "holiday", "sneakers": "trainers",
    },
    "IN": {
        "waterproof": "monsoon proof", "rain": "monsoon", "winter": "cold season",
        "backyard": "terrace", "holiday": "festival",
    },
}

LOCALES: tuple[str, ...] = tuple(_LOCALE_SUBSTITUTIONS)

# Relative dataset sizes per locale (Table 5: CA is smallest, IN largest).
LOCALE_SCALE: dict[str, float] = {
    "KDD Cup": 1.0, "US": 0.85, "CA": 0.16, "UK": 0.34, "IN": 1.05,
}


class ESCILabel:
    """Label constants (kept as plain strings for easy reporting)."""

    EXACT = "Exact"
    SUBSTITUTE = "Substitute"
    COMPLEMENT = "Complement"
    IRRELEVANT = "Irrelevant"


@dataclass(frozen=True)
class ESCIExample:
    """One labeled (query, product) relevance pair."""

    example_id: str
    locale: str
    query_id: str
    query_text: str
    product_id: str
    product_title: str
    label: str
    # Ground-truth intent of the query (None for specific/irrelevant pairs);
    # used only by the knowledge generator and the oracle, never by models.
    intent_id: str | None


@dataclass
class ESCIDataset:
    """Train/test split for one locale."""

    locale: str
    train: list[ESCIExample]
    test: list[ESCIExample]

    def stats(self) -> dict[str, int]:
        """Table 5-shaped statistics for this locale."""
        examples = self.train + self.test
        labels = Counter(e.label for e in examples)
        return {
            "train_pairs": len(self.train),
            "test_pairs": len(self.test),
            "exact_pairs": labels[ESCILabel.EXACT],
            "unique_queries": len({e.query_id for e in examples}),
            "unique_products": len({e.product_id for e in examples}),
        }

    def label_distribution(self) -> Counter:
        return Counter(e.label for e in self.train + self.test)


def _localize(text: str, locale: str) -> str:
    for source, target in _LOCALE_SUBSTITUTIONS[locale].items():
        text = text.replace(source, target)
    return text


class _LabelSampler:
    """Samples products for each label given a query's ground truth."""

    def __init__(self, world: World, rng: np.random.Generator):
        self.world = world
        self.rng = rng
        self._all_products = world.catalog.all()

    def exact(self, query: Query) -> Product | None:
        if query.breadth == "broad" and query.intent_id is not None:
            candidates = self.world.catalog.serving_intent(query.intent_id)
        elif query.product_type is not None:
            candidates = self.world.catalog.for_type(query.domain, query.product_type)
        else:
            candidates = []
        return self._pick(candidates)

    def substitute(self, query: Query) -> Product | None:
        """Different-type product serving a *similar* intent."""
        anchor_intent = self._query_intent(query)
        if anchor_intent is None:
            return None
        exact_types = {
            p.product_type for p in self.world.catalog.serving_intent(anchor_intent)
        }
        similar = [
            intent
            for intent in self.world.intents.for_domain(query.domain)
            if intent.intent_id != anchor_intent
            and self.world.intents.similarity(intent.intent_id, anchor_intent) > 0.2
        ]
        candidates = [
            p
            for intent in similar
            for p in self.world.catalog.serving_intent(intent.intent_id)
            if p.product_type not in exact_types
        ]
        return self._pick(candidates)

    def complement(self, query: Query) -> Product | None:
        """Product sharing one of an exact product's *other* intents."""
        anchor_intent = self._query_intent(query)
        if anchor_intent is None:
            return None
        exacts = self.world.catalog.serving_intent(anchor_intent)
        if not exacts:
            return None
        exact = exacts[int(self.rng.integers(len(exacts)))]
        other_intents = [i for i in exact.intent_ids if i != anchor_intent]
        if not other_intents:
            return None
        partner_intent = other_intents[int(self.rng.integers(len(other_intents)))]
        candidates = [
            p
            for p in self.world.catalog.serving_intent(partner_intent)
            if p.product_type != exact.product_type
        ]
        return self._pick(candidates)

    def irrelevant(self, query: Query) -> Product | None:
        candidates = [p for p in self._all_products if p.domain != query.domain]
        return self._pick(candidates)

    def _query_intent(self, query: Query) -> str | None:
        if query.intent_id is not None:
            return query.intent_id
        if query.product_type is not None:
            typed = self.world.catalog.for_type(query.domain, query.product_type)
            pools = [p.intent_ids for p in typed if p.intent_ids]
            if pools:
                pool = pools[int(self.rng.integers(len(pools)))]
                return pool[int(self.rng.integers(len(pool)))]
        return None

    def _pick(self, candidates: list[Product]) -> Product | None:
        if not candidates:
            return None
        return candidates[int(self.rng.integers(len(candidates)))]


def generate_esci(
    world: World,
    *,
    pairs_per_query: int,
    seed: int,
    locale: str = "KDD Cup",
    max_queries: int | None = None,
) -> ESCIDataset:
    """Generate an ESCI dataset for one locale.

    ``pairs_per_query`` products are drawn per query with the Exact-heavy
    label mix; queries and titles are passed through the locale's word
    substitution map.  The last quarter of the shuffled examples is the
    test split.
    """
    if locale not in _LOCALE_SUBSTITUTIONS:
        raise ValueError(f"unknown locale {locale!r}; valid: {LOCALES}")
    rng = spawn_rng(seed, f"esci:{locale}")
    sampler = _LabelSampler(world, rng)
    queries = world.queries.all()
    scale = LOCALE_SCALE[locale]
    n_queries = int(len(queries) * min(scale, 1.0))
    if max_queries is not None:
        n_queries = min(n_queries, max_queries)
    order = rng.permutation(len(queries))[:n_queries]
    labels = list(_LABEL_WEIGHTS)
    label_p = np.array([_LABEL_WEIGHTS[l] for l in labels])

    samplers = {
        ESCILabel.EXACT: sampler.exact,
        ESCILabel.SUBSTITUTE: sampler.substitute,
        ESCILabel.COMPLEMENT: sampler.complement,
        ESCILabel.IRRELEVANT: sampler.irrelevant,
    }
    examples: list[ESCIExample] = []
    for query_index in order:
        query = queries[int(query_index)]
        for pair_index in range(pairs_per_query):
            label = labels[int(rng.choice(len(labels), p=label_p))]
            product = samplers[label](query)
            if product is None:
                continue
            examples.append(
                ESCIExample(
                    example_id=f"esci-{locale}-{len(examples):06d}",
                    locale=locale,
                    query_id=query.query_id,
                    query_text=_localize(query.text, locale),
                    product_id=product.product_id,
                    product_title=_localize(product.title, locale),
                    label=label,
                    intent_id=query.intent_id,
                )
            )
    rng.shuffle(examples)
    split = int(len(examples) * 0.75)
    return ESCIDataset(locale=locale, train=examples[:split], test=examples[split:])
