"""Co-purchase behavior simulator (§3.1, §3.2.1).

Co-buy pairs are emitted from the latent-intent world: with probability
``INTENTIONAL_RATE`` a pair of *different-type* products sharing an intent
is co-bought (the signal COSMO mines); otherwise a random pair is emitted
(the noise the sampling heuristics must reject).  Edge multiplicities are
geometric, giving the co-buy graph a realistic heavy tail, and node
degrees feed the popularity term of the Eq. 2 annotation re-weighting.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.behavior.world import World
from repro.utils.rng import spawn_rng

__all__ = ["CoBuyPair", "CoBuyLog", "simulate_cobuy"]

INTENTIONAL_RATE = 0.8      #: share of co-buy events that share an intent


@dataclass(frozen=True)
class CoBuyPair:
    """An aggregated co-purchase edge.

    ``intent_id`` is the ground-truth shared intent (None for random
    co-purchases) — visible to the simulator and the annotation oracle,
    never to the pipeline under test.
    """

    pair_id: str
    product_a: str
    product_b: str
    domain: str
    count: int
    intent_id: str | None


class CoBuyLog:
    """Aggregated co-buy pairs with degree (popularity) lookups."""

    def __init__(self, pairs: list[CoBuyPair]):
        self.pairs = pairs
        self._degree: Counter[str] = Counter()
        for pair in pairs:
            self._degree[pair.product_a] += pair.count
            self._degree[pair.product_b] += pair.count

    def __len__(self) -> int:
        return len(self.pairs)

    def degree(self, product_id: str) -> int:
        """Weighted degree of a product in the co-buy graph."""
        return self._degree[product_id]

    def for_domain(self, domain: str) -> list[CoBuyPair]:
        return [pair for pair in self.pairs if pair.domain == domain]


def simulate_cobuy(
    world: World,
    pairs_per_domain: int = 120,
    seed: int = 0,
) -> CoBuyLog:
    """Emit co-buy behavior for every domain of the world."""
    rng = spawn_rng(seed, "cobuy")
    pairs: list[CoBuyPair] = []
    for domain_index, domain in enumerate(sorted({p.domain for p in world.catalog.all()})):
        products = world.catalog.for_domain(domain)
        popularity = np.array([p.popularity for p in products])
        weights = popularity / popularity.sum()
        counter = 0
        for _ in range(pairs_per_domain):
            pair = _sample_pair(world, domain, products, weights, rng)
            if pair is None:
                continue
            product_a, product_b, intent_id = pair
            pairs.append(
                CoBuyPair(
                    pair_id=f"cb{domain_index:02d}-{counter:05d}",
                    product_a=product_a,
                    product_b=product_b,
                    domain=domain,
                    count=int(rng.geometric(0.3)),
                    intent_id=intent_id,
                )
            )
            counter += 1
    return CoBuyLog(pairs)


def _sample_pair(world, domain, products, weights, rng):
    """One co-buy event; returns (a, b, intent_id|None) or None."""
    if rng.random() < INTENTIONAL_RATE:
        # A few retries: some (anchor, intent) draws have no different-type
        # partner at small catalog scales.
        for _ in range(4):
            anchor = products[int(rng.choice(len(products), p=weights))]
            if not anchor.intent_ids:
                continue
            intent_id = anchor.intent_ids[int(rng.integers(len(anchor.intent_ids)))]
            partners = [
                p
                for p in world.catalog.serving_intent(intent_id)
                if p.product_id != anchor.product_id
                and p.product_type != anchor.product_type
            ]
            if partners:
                partner = partners[int(rng.integers(len(partners)))]
                return anchor.product_id, partner.product_id, intent_id
        return None
    first, second = rng.choice(len(products), size=2, replace=False)
    return products[int(first)].product_id, products[int(second)].product_id, None
